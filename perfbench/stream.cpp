// stream — continuous flow-delta ingest with drift-triggered re-optimisation.
//
// driver::StreamingEngine on canonical-2560 (2,560 hosts, 20,480 VMs) with
// the paper §VI fleet, 4 ingest shards, partial re-optimisation and a
// bounded queue, fresh_reference off in the timed runs. The bound
// CachedCostModel mostly writes here (O(1) delta folds through the observer
// seam) besides the re-optimisations' reads. It is a closed loop: the
// engine's producer blocks on the full queue, so updates_per_s is
// closed-loop throughput.
#include <algorithm>
#include <optional>

#include "core/cost_model.hpp"
#include "core/migration_engine.hpp"
#include "driver/multi_token.hpp"
#include "driver/streaming.hpp"
#include "traffic/ingest.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace score;

constexpr std::size_t kRacks = 128;
constexpr std::size_t kTicks = 8;
constexpr double kBand = 1.05;
// Bytes of one flow delta as a measurement report would carry it: two
// 32-bit VM ids and a 64-bit rate change.
constexpr double kDeltaWireBytes = 16.0;

driver::StreamingConfig stream_config(std::uint64_t seed, std::size_t num_vms) {
  driver::StreamingConfig cfg;
  cfg.generator = paper_generator(num_vms, seed);
  cfg.server_capacity = paper_capacity();
  cfg.placement_seed = seed + 1;
  cfg.events.events_per_tick = num_vms / 2;
  cfg.events.seed = seed + 2;
  cfg.ticks = kTicks;
  cfg.queue_capacity = 4;
  // Nearly every tick trips a shard and every re-optimisation (the initial
  // one too) runs its full four rounds, so the work differs between seeds
  // mainly by which re-optimisations are partial.
  cfg.drift_threshold = 0.03;
  cfg.tokens = 4;
  cfg.iterations_per_reopt = 4;
  cfg.fresh_reference = false;
  cfg.reopt_iterations = 8;
  cfg.ingest_shards = 4;
  cfg.partial_reopt = true;
  // Three fold/walk workers plus the engine's producer thread: four busy
  // threads at most.
  cfg.exec = util::ExecPolicy::par(3);
  return cfg;
}

/// Counts the effective rate transitions the ingest path commits.
class TransitionCounter final : public traffic::TrafficObserver {
 public:
  void on_rate_change(traffic::VmId, traffic::VmId, double, double) override {
    ++transitions;
  }
  void on_bulk_update() override {}
  void on_matrix_destroyed() override {}
  std::uint64_t transitions = 0;
};

struct Run {
  SetupSpans spans;
  driver::StreamingReport report;
  double run_s = 0.0;
  std::map<std::string, double> exact;
};

// The engine builds its world inside run(). Set-up is the same calls on the
// same config made by the benchmark — topology, traffic generation, initial
// placement and bind — yielding the world the engine then rebuilds.
Run stream(std::uint64_t seed, TransitionCounter* tap) {
  Run r;
  const Fleet world = build_fleet(TopologyKind::kCanonical, kRacks, seed);
  r.spans = world.spans;
  driver::StreamingConfig cfg = stream_config(seed, world.alloc->num_vms());
  cfg.tap = tap;
  driver::StreamingEngine engine(*world.topology, cfg);
  const auto t = Clock::now();
  r.report = engine.run();
  r.run_s = seconds_since(t);
  return r;
}

/// The untimed check run on one seed: the same stream with the fresh
/// reference on, a replica of the engine's initial optimisation, and the
/// cost the initial placement would have on the final matrix.
struct Reference {
  driver::StreamingReport report;
  double initial_cost = 0.0;
  double initial_duration_s = 0.0;
  double unoptimised_final_cost = 0.0;
};

Reference reference_run(std::uint64_t seed) {
  Fleet world = build_fleet(TopologyKind::kCanonical, kRacks, seed);
  driver::StreamingConfig cfg = stream_config(seed, world.alloc->num_vms());
  Reference ref;
  {
    // The engine's producer streams these batches from the same matrix.
    traffic::FlowEventStream events(*world.tm, cfg.events);
    traffic::TrafficMatrix final_tm = *world.tm;
    for (std::size_t i = 0; i < kTicks; ++i) final_tm.apply(events.next_batch());
    ref.unoptimised_final_cost =
        core::CostModel(*world.topology, world.model->weights())
            .total_cost(*world.alloc, final_tm);
  }
  {
    const core::MigrationEngine engine(*world.model, cfg.engine);
    driver::MultiTokenConfig mcfg;
    mcfg.tokens = cfg.tokens;
    mcfg.iterations = cfg.iterations_per_reopt;
    mcfg.stop_when_stable = true;
    mcfg.policy = cfg.exec;
    driver::MultiTokenSimulation sim(engine, *world.alloc, *world.tm);
    ref.initial_duration_s = sim.run(mcfg).duration_s;
    ref.initial_cost = world.model->total_cost(*world.alloc, *world.tm);
  }
  cfg.fresh_reference = true;
  ref.report = driver::StreamingEngine(*world.topology, cfg).run();
  return ref;
}

std::string check(Run& r, const Reference& ref) {
  const driver::StreamingReport& rep = r.report;
  if (rep.ticks != kTicks) return "stream: consumed " + std::to_string(rep.ticks) + " ticks";
  // The one rebuild allowed is the engine's initial bind.
  if (rep.deltas_folded != rep.deltas_applied || rep.cache_rebuilds > 1) {
    return "stream: " + std::to_string(rep.deltas_applied - rep.deltas_folded) +
           " deltas not folded, " + std::to_string(rep.cache_rebuilds) + " rebuilds";
  }
  if (rep.max_queue_depth > 4) return "stream: queue depth above its bound";
  if (rep.final_cost != ref.report.final_cost) {
    return "stream: final cost " + std::to_string(rep.final_cost) +
           " != fresh-reference run " + std::to_string(ref.report.final_cost);
  }
  if (rep.initial_cost != ref.initial_cost) {
    return "stream: initial optimisation differs from its replica";
  }
  if (ref.report.undefined_cost_ratios() != 0) return "stream: undefined cost ratios";
  // The band gates the state the stream ends in. Each trigger's ratio is
  // against one random restart, and on some seeds those ratios swing by
  // several percent from tick to tick with partial re-optimisation off too
  // (seed 209: 0.90-1.06), so their maximum is reported, not gated.
  const double final_ratio = ref.report.final_cost / ref.report.final_fresh_cost;
  if (!ref.report.final_fresh_computed || !(final_ratio <= kBand)) {
    return "stream: final cost ratio vs fresh " + std::to_string(final_ratio) +
           " above 1.05";
  }
  const double ratio = ref.report.max_cost_ratio();
  r.exact = {
      {"cost_reduction_pct", 100.0 * (1.0 - rep.final_cost / ref.unoptimised_final_cost)},
      {"cost_ratio_vs_fresh", ratio},
      {"sim_converge_s", ref.initial_duration_s},
      {"control_mb", static_cast<double>(rep.deltas_applied) * kDeltaWireBytes / 1e6},
      {"final_cost", rep.final_cost},
  };
  return "";
}

void replay_ingest(RawResult& out, const Fleet& world, std::uint64_t seed) {
  const driver::StreamingConfig cfg = stream_config(seed, world.alloc->num_vms());
  traffic::FlowEventStream events(*world.tm, cfg.events);
  std::vector<traffic::FlowDeltaBatch> batches;
  auto t = Clock::now();
  for (std::size_t i = 0; i < kTicks; ++i) batches.push_back(events.next_batch());
  out.layer("traffic.next_batch_ns", 1e9 * seconds_since(t) / kTicks, "ns", true);

  // TrafficMatrix::apply on a bound copy: every delta folds into the cache.
  traffic::TrafficMatrix tm = *world.tm;
  core::Allocation alloc = *world.alloc;
  core::CachedCostModel model(*world.topology, world.model->weights());
  model.bind(alloc, tm);
  std::uint64_t deltas = 0;
  t = Clock::now();
  for (const traffic::FlowDeltaBatch& b : batches) {
    tm.apply(b);
    deltas += b.size();
  }
  out.layer("traffic.apply_ns_per_delta",
            1e9 * seconds_since(t) / static_cast<double>(std::max<std::uint64_t>(1, deltas)),
            "ns", true);
}

}  // namespace

void run_stream(const Options& opt, RawResult& out) {
  double verify_s = 0.0;
  std::map<std::uint64_t, Reference> references;
  // One op = one ingest batch; a failed check fails every batch of its run.
  auto op = [&](std::uint64_t seed, TransitionCounter* tap) {
    std::optional<Run> r;
    out.attempted += kTicks;
    try {
      r = stream(seed, tap);
      const auto t = Clock::now();
      if (!references.count(seed)) references.emplace(seed, reference_run(seed));
      const std::string error = check(*r, references.at(seed));
      verify_s += seconds_since(t);
      if (!error.empty()) {
        out.fail(error, kTicks);
        r.reset();
      }
    } catch (const std::exception& e) {
      out.fail(std::string("stream: ") + e.what(), kTicks);
      r.reset();
    }
    return r;
  };
  auto record = [&](const Run& r, const char* run_key) {
    out.timing["setup_s"].push_back(r.spans.total());
    out.timing[run_key].push_back(r.run_s);
    out.timing["updates_per_s"].push_back(
        static_cast<double>(r.report.deltas_applied) / r.run_s);
    for (const auto& [k, v] : r.exact) out.exact[k].push_back(v);
  };

  if (!opt.trace) {
    // Timed repetitions first, their checks after: the fresh-reference run
    // must not count towards this workload's peak memory.
    std::vector<Run> runs;
    repeat_for(opt.seconds, 3, [&](std::size_t) {
      out.attempted += kTicks;
      try {
        runs.push_back(stream(opt.seed, nullptr));
      } catch (const std::exception& e) {
        out.fail(std::string("stream: ") + e.what(), kTicks);
      }
    });
    out.once["peak_rss_mb"] = peak_rss_mb();
    const auto t = Clock::now();
    std::string reference_error;
    try {
      references.emplace(opt.seed, reference_run(opt.seed));
    } catch (const std::exception& e) {
      reference_error = std::string("stream reference: ") + e.what();
    }
    if (reference_error.empty()) {
      std::size_t above = 0;
      for (const driver::ReoptEvent& ev : references.at(opt.seed).report.reopts) {
        above += ev.cost_ratio() > kBand ? 1 : 0;
      }
      out.once["triggers_above_band"] = static_cast<double>(above);
    }
    for (Run& r : runs) {
      const std::string error =
          reference_error.empty() ? check(r, references.at(opt.seed)) : reference_error;
      if (error.empty()) {
        record(r, "run_s");
      } else {
        out.fail(error, kTicks);
      }
    }
    verify_s += seconds_since(t);
    out.once["verify_s"] = verify_s;
    return;
  }

  for (int i = 0; i < 2; ++i) {
    if (auto r = op(opt.seed, nullptr)) record(*r, "run_s");
  }
  std::optional<Run> traced;
  std::uint64_t transitions = 0;
  for (int i = 0; i < 2; ++i) {
    TransitionCounter counter;
    if (auto r = op(opt.seed, &counter)) {
      record(*r, "traced_run_s");
      traced = std::move(r);
      transitions = counter.transitions;
    }
  }
  // One pass on a second seed, so claims can be checked on a seed no
  // change was tuned on.
  if (auto r = op(opt.seed + kSecondSeedOffset, nullptr)) {
    out.second_seed = r->exact;
    out.second_seed["run_s"] = r->run_s;
  }
  if (!traced || out.timing["run_s"].empty()) return;

  const driver::StreamingReport& rep = traced->report;
  report_setup_layers(out, traced->spans);
  {
    const Fleet initial = build_fleet(TopologyKind::kCanonical, kRacks, opt.seed);
    const driver::StreamingConfig cfg = stream_config(opt.seed, initial.alloc->num_vms());
    replay_core(out, *initial.topology, *initial.alloc, *initial.tm, cfg.tokens, cfg.exec);
    replay_token_codec(out, initial.alloc->num_vms());
    replay_ingest(out, initial, opt.seed);
  }
  out.layer("traffic.effective_delta_ratio",
            static_cast<double>(transitions) /
                static_cast<double>(rep.deltas_applied),
            "ratio");
  out.layer("traffic.max_queue_depth", static_cast<double>(rep.max_queue_depth), "count");
  out.layer("driver.fold_p50_ns", rep.fold_p50_ns(), "ns");
  out.layer("driver.fold_p99_ns", rep.fold_p99_ns(), "ns");
  out.layer("driver.fold_samples", static_cast<double>(rep.fold_latency_ns.size()), "count");
  out.layer("driver.trigger_p99_ns", rep.trigger_p99_ns(), "ns");
  out.layer("driver.trigger_samples",
            static_cast<double>(rep.trigger_latency_ns.size()), "count");
  out.layer("driver.reopts", static_cast<double>(rep.reopts.size()), "count");
  out.layer("driver.partial_reopts", static_cast<double>(rep.partial_reopts), "count");
  out.layer("driver.deltas_per_reopt", rep.deltas_per_reopt(), "count");
  double fold_s = 0.0;
  double trigger_s = 0.0;
  for (const double ns : rep.fold_latency_ns) fold_s += ns / 1e9;
  for (const double ns : rep.trigger_latency_ns) trigger_s += ns / 1e9;
  out.layer("driver.fold_s", fold_s, "s");
  out.layer("driver.trigger_s", trigger_s, "s");
  out.layer("driver.reopt_s", traced->run_s - fold_s - trigger_s, "s", true);
  out.distributions["driver.fold_ns"] = rep.fold_latency_ns;
  out.layer("bench.traced_run_s", traced->run_s, "s");
  out.layer("bench.trace_overhead_s",
            median(out.timing["traced_run_s"]) - median(out.timing["run_s"]), "s", true);
  out.layer("bench.verify_s", verify_s, "s");
}

}  // namespace perfbench
