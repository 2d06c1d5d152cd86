// converge — centralized multi-token convergence at fleet scale.
//
// Fat-tree k=48 (27,648 hosts, 221,184 VMs) with the paper §VI fleet, four
// round-robin tokens walking disjoint partitions under ExecPolicy::par(4),
// driven through driver::MultiTokenSimulation. Almost all of the time is in
// core (evaluate, delta, apply, begin_pass resync, reconcile) and the driver;
// no codec, network or ingest code runs.
#include <algorithm>
#include <cmath>
#include <optional>

#include "core/cost_model.hpp"
#include "core/migration_engine.hpp"
#include "driver/multi_token.hpp"
#include "hypervisor/token_codec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace score;

constexpr std::size_t kArity = 48;
constexpr std::size_t kTokens = 4;
constexpr std::size_t kThreads = 4;
// A fixed pass count (no early stop) gives every seed the same number of
// passes, so run_s differs between seeds only by the work inside them. After
// ten passes the last one commits under 0.1% of its holds on every seed
// tried; the check below enforces that bound.
constexpr std::size_t kPasses = 10;
constexpr double kConvergedShare = 1e-3;

struct Run {
  Fleet fleet;
  std::optional<core::Allocation> initial;  ///< kept for the traced replays
  driver::SimResult result;
  double run_s = 0.0;
  std::uint64_t holds = 0;
  std::map<std::string, double> exact;
};

Run converge(std::uint64_t seed, const util::ExecPolicy& policy, bool keep_initial) {
  Run r;
  r.fleet = build_fleet(TopologyKind::kFatTree, kArity, seed);
  if (keep_initial) r.initial = *r.fleet.alloc;
  const core::MigrationEngine engine(*r.fleet.model);
  driver::MultiTokenConfig cfg;
  cfg.tokens = kTokens;
  cfg.iterations = kPasses;
  cfg.stop_when_stable = false;
  cfg.policy = policy;
  driver::MultiTokenSimulation sim(engine, *r.fleet.alloc, *r.fleet.tm);
  const auto t = Clock::now();
  r.result = sim.run(cfg);
  r.run_s = seconds_since(t);
  for (const driver::IterationStats& it : r.result.iterations) r.holds += it.holds;
  return r;
}

// Output check: the cached Eq. (2) total of the final allocation equals a
// brute-force recomputation, the driver's reported final cost is that total,
// and the last pass converged. Returns the reason on failure.
std::string check(Run& r) {
  const Fleet& f = r.fleet;
  const core::CostModel brute(*f.topology, f.model->weights());
  const double brute_cost = brute.total_cost(*f.alloc, *f.tm);
  const double cached = f.model->total_cost(*f.alloc, *f.tm);
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
  };
  if (!close(cached, brute_cost)) {
    return "converge: cached cost " + std::to_string(cached) +
           " != brute force " + std::to_string(brute_cost);
  }
  if (!close(r.result.final_cost, brute_cost)) {
    return "converge: reported final cost " + std::to_string(r.result.final_cost) +
           " != brute force " + std::to_string(brute_cost);
  }
  if (r.result.iterations.size() != kPasses) {
    return "converge: ran " + std::to_string(r.result.iterations.size()) +
           " passes, expected " + std::to_string(kPasses);
  }
  const driver::IterationStats& last = r.result.iterations.back();
  if (static_cast<double>(last.migrations) >
      kConvergedShare * static_cast<double>(last.holds)) {
    return "converge: last pass still migrated " + std::to_string(last.migrations) +
           " of " + std::to_string(last.holds) + " holds";
  }
  const double frame_bytes = static_cast<double>(
      hypervisor::token_frame_bytes(f.alloc->num_vms()));
  r.exact = {
      {"cost_reduction_pct", 100.0 * r.result.reduction()},
      {"cost_ratio_vs_fresh", cached / brute_cost},
      {"sim_converge_s", r.result.duration_s},
      {"control_mb", static_cast<double>(r.holds) * frame_bytes / 1e6},
  };
  return "";
}

}  // namespace

void run_converge(const Options& opt, RawResult& out) {
  double verify_s = 0.0;
  // One op = one optimisation run, checked outside its timed span.
  auto op = [&](std::uint64_t seed, const util::ExecPolicy& policy) {
    std::optional<Run> r;
    ++out.attempted;
    try {
      r = converge(seed, policy, opt.trace);
      const auto t = Clock::now();
      const std::string error = check(*r);
      verify_s += seconds_since(t);
      if (!error.empty()) {
        out.fail(error);
        r.reset();
      }
    } catch (const std::exception& e) {
      out.fail(std::string("converge: ") + e.what());
      r.reset();
    }
    return r;
  };
  auto record = [&](const Run& r, const char* run_key) {
    out.timing["setup_s"].push_back(r.fleet.spans.total());
    out.timing[run_key].push_back(r.run_s);
    out.timing["updates_per_s"].push_back(static_cast<double>(r.holds) / r.run_s);
    for (const auto& [k, v] : r.exact) out.exact[k].push_back(v);
  };

  const util::ExecPolicy par = util::ExecPolicy::par(kThreads);
  if (!opt.trace) {
    repeat_for(opt.seconds, 3, [&](std::size_t) {
      if (auto r = op(opt.seed, par)) record(*r, "run_s");
    });
    out.once["peak_rss_mb"] = peak_rss_mb();
    out.once["verify_s"] = verify_s;
    return;
  }

  // Traced: this workload has no decorator, so a traced repetition is an
  // untraced one; both are run so the overhead is measured the same way as
  // on the other workloads.
  for (int i = 0; i < 2; ++i) {
    if (auto r = op(opt.seed, par)) record(*r, "run_s");
  }
  std::optional<Run> traced;
  for (int i = 0; i < 2; ++i) {
    if (auto r = op(opt.seed, par)) {
      record(*r, "traced_run_s");
      traced = std::move(r);
    }
  }
  std::optional<Run> seq = op(opt.seed, util::ExecPolicy::seq());
  // One pass on a second seed, so claims can be checked on a seed no
  // change was tuned on.
  if (auto r = op(opt.seed + kSecondSeedOffset, par)) {
    out.second_seed = r->exact;
    out.second_seed["run_s"] = r->run_s;
  }
  if (!traced || !seq || out.timing["run_s"].empty()) return;
  if (seq->result.final_cost != traced->result.final_cost) {
    out.fail("converge: seq final cost differs from par(4)");
    return;
  }

  const Fleet& f = traced->fleet;
  const driver::SimResult& res = traced->result;
  report_setup_layers(out, f.spans);
  replay_core(out, *f.topology, *traced->initial, *f.tm, kTokens, par);
  replay_token_codec(out, f.alloc->num_vms());

  const double passes = static_cast<double>(res.iterations.size());
  const double holds = static_cast<double>(traced->holds);
  const double migrations = static_cast<double>(res.total_migrations);
  out.layer("driver.passes", passes, "count");
  out.layer("driver.holds", holds, "count");
  out.layer("driver.migrations", migrations, "count");
  out.layer("driver.useful_ratio", migrations / holds, "ratio");
  const double par_run_s = median(out.timing["run_s"]);
  out.layer("util.exec.par_speedup", seq->run_s / par_run_s, "ratio");

  // Where the traced run's time went, modelled from the replays: shard walks
  // (evaluate every hold, apply every commit) spread over the workers, the
  // serial merge revalidating each commit with a fresh Lemma-3 delta, and
  // the per-pass resync + reconcile. The driver's remainder is the rest.
  auto layer_value = [&](const char* name) { return out.layers.at(name).value; };
  const double walk_s = (holds * layer_value("core.evaluate_ns") +
                         migrations * layer_value("core.apply_migration_ns")) /
                        static_cast<double>(kThreads) / 1e9;
  const double merge_s = migrations * layer_value("core.migration_delta_ns") / 1e9;
  const double resync_ns_per_vm = layer_value("core.begin_pass_touched_ns") /
                                  std::max(1.0, layer_value("core.begin_pass_touched_vms"));
  const double sync_s = (layer_value("core.begin_pass_full_ns") +
                         passes * layer_value("core.reconcile_ns") +
                         migrations * resync_ns_per_vm) /
                        1e9;
  const double traced_s = median(out.timing["traced_run_s"]);
  out.layer("core.shard_walk_s", walk_s, "s", true);
  out.layer("core.merge_s", merge_s, "s", true);
  out.layer("core.pass_sync_s", sync_s, "s", true);
  out.layer("driver.self_s", traced_s - walk_s - merge_s - sync_s, "s", true);
  out.layer("bench.traced_run_s", traced_s, "s");
  out.layer("bench.trace_overhead_s", traced_s - par_run_s, "s", true);
  out.layer("bench.verify_s", verify_s, "s");
}

}  // namespace perfbench
