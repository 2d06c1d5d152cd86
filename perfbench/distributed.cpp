// distributed — the in-process message-passing runtime.
//
// Fat-tree k=16 (1,024 hosts, 8,192 VMs) with the paper §VI fleet, one
// round-robin token, loss 0, driven through
// hypervisor::DistributedScoreRuntime with a LocalAgentExecutor. Every hop
// re-serialises the full token, so the token codec and the sim::Network
// event loop carry most of the time; no ingest code runs.
#include <optional>

#include "driver/multi_token.hpp"
#include "hypervisor/agent.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "timed_executor.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace score;

constexpr std::size_t kArity = 16;
// Fixed round count (no early stop), for the same reason as converge's pass
// count; round 4 migrates well under 2% of the VMs on every seed tried.
constexpr std::size_t kRounds = 4;
constexpr double kReferenceSlack = 1.01;

struct Run {
  Fleet fleet;
  hypervisor::RuntimeResult result;
  double run_s = 0.0;
  std::map<std::string, double> exact;
};

hypervisor::RuntimeConfig runtime_config() {
  hypervisor::RuntimeConfig cfg;
  cfg.policy = "round-robin";
  cfg.iterations = kRounds;
  cfg.stop_when_stable = false;
  cfg.message_loss_rate = 0.0;
  return cfg;
}

Run distribute(std::uint64_t seed, TimedExecutor* timed,
               hypervisor::LocalAgentExecutor& local) {
  Run r;
  r.fleet = build_fleet(TopologyKind::kFatTree, kArity, seed);
  hypervisor::AgentExecutor& executor =
      timed != nullptr ? static_cast<hypervisor::AgentExecutor&>(*timed) : local;
  hypervisor::DistributedScoreRuntime runtime(*r.fleet.model, *r.fleet.alloc,
                                              *r.fleet.tm, runtime_config(),
                                              executor);
  const auto t = Clock::now();
  r.result = runtime.run();
  r.run_s = seconds_since(t);
  return r;
}

// Centralized round-robin reference on the same world: one token, the same
// round budget, through the multi-token driver.
double centralized_reference(std::uint64_t seed) {
  Fleet f = build_fleet(TopologyKind::kFatTree, kArity, seed);
  const core::MigrationEngine engine(*f.model);
  driver::MultiTokenConfig cfg;
  cfg.tokens = 1;
  cfg.iterations = kRounds;
  cfg.stop_when_stable = false;
  driver::MultiTokenSimulation sim(engine, *f.alloc, *f.tm);
  return sim.run(cfg).final_cost;
}

std::string check(Run& r, double reference) {
  const hypervisor::RuntimeResult& res = r.result;
  if (res.rounds() != kRounds) {
    return "distributed: ran " + std::to_string(res.rounds()) + " rounds, expected " +
           std::to_string(kRounds);
  }
  if (res.final_cost > kReferenceSlack * reference) {
    return "distributed: final cost " + std::to_string(res.final_cost) +
           " above 1.01 x centralized " + std::to_string(reference);
  }
  if (res.messages_lost != 0) return "distributed: messages lost at loss 0";
  std::uint64_t holds = 0;
  for (const auto& it : res.iterations) holds += it.holds;
  r.exact = {
      {"cost_reduction_pct", 100.0 * res.reduction()},
      {"cost_ratio_vs_fresh", res.final_cost / reference},
      {"sim_converge_s", res.duration_s},
      {"control_mb", static_cast<double>(res.control_bytes) / 1e6},
      {"holds", static_cast<double>(holds)},
  };
  return "";
}

}  // namespace

void run_distributed(const Options& opt, RawResult& out) {
  double verify_s = 0.0;
  std::map<std::uint64_t, double> references;
  auto op = [&](std::uint64_t seed, TimedExecutor* timed,
                hypervisor::LocalAgentExecutor& local) {
    std::optional<Run> r;
    ++out.attempted;
    try {
      r = distribute(seed, timed, local);
      const auto t = Clock::now();
      if (!references.count(seed)) references[seed] = centralized_reference(seed);
      const std::string error = check(*r, references[seed]);
      verify_s += seconds_since(t);
      if (!error.empty()) {
        out.fail(error);
        r.reset();
      }
    } catch (const std::exception& e) {
      out.fail(std::string("distributed: ") + e.what());
      r.reset();
    }
    return r;
  };
  auto record = [&](const Run& r, const char* run_key) {
    out.timing["setup_s"].push_back(r.fleet.spans.total());
    out.timing[run_key].push_back(r.run_s);
    out.timing["updates_per_s"].push_back(r.exact.at("holds") / r.run_s);
    for (const auto& [k, v] : r.exact) {
      if (k != "holds") out.exact[k].push_back(v);
    }
  };

  if (!opt.trace) {
    repeat_for(opt.seconds, 3, [&](std::size_t) {
      hypervisor::LocalAgentExecutor local;
      if (auto r = op(opt.seed, nullptr, local)) record(*r, "run_s");
    });
    out.once["peak_rss_mb"] = peak_rss_mb();
    sample_setup(out.timing["setup_s"], TopologyKind::kFatTree, kArity, opt.seed, 30, 1.0);
    out.once["verify_s"] = verify_s;
    return;
  }

  for (int i = 0; i < 2; ++i) {
    hypervisor::LocalAgentExecutor local;
    if (auto r = op(opt.seed, nullptr, local)) record(*r, "run_s");
  }
  std::optional<Run> traced;
  std::optional<TimedExecutor> traced_exec;
  for (int i = 0; i < 2; ++i) {
    hypervisor::LocalAgentExecutor local;
    TimedExecutor timed(local, false);
    if (auto r = op(opt.seed, &timed, local)) {
      record(*r, "traced_run_s");
      traced = std::move(r);
      traced_exec.emplace(timed);
    }
  }
  // One pass on a second seed, so claims can be checked on a seed no
  // change was tuned on.
  if (hypervisor::LocalAgentExecutor local;
      auto r = op(opt.seed + kSecondSeedOffset, nullptr, local)) {
    out.second_seed = r->exact;
    out.second_seed.erase("holds");
    out.second_seed["run_s"] = r->run_s;
  }
  if (!traced || out.timing["run_s"].empty()) return;

  const Fleet& f = traced->fleet;
  const hypervisor::RuntimeResult& res = traced->result;
  const double run_s = median(out.timing["run_s"]);
  const double traced_s = traced->run_s;
  report_setup_layers(out, f.spans);
  {
    // Replays need the initial placement: rebuild the same world.
    const Fleet initial = build_fleet(TopologyKind::kFatTree, kArity, opt.seed);
    replay_core(out, *initial.topology, *initial.alloc, *initial.tm, 1,
                util::ExecPolicy::seq());
  }
  const double codec_ns = replay_token_codec(out, f.alloc->num_vms());
  out.layer("hypervisor.token_codec_share",
            codec_ns * static_cast<double>(res.token_messages) / 1e9 / run_s,
            "ratio", true);
  traced_exec->report(out);
  out.layer("hypervisor.runtime_self_s",
            traced_s - traced_exec->busy_s() - traced_exec->start_s() -
                traced_exec->finish_s(),
            "s", true);
  out.layer("sim.messages",
            static_cast<double>(res.token_messages + res.location_messages +
                                res.capacity_messages),
            "count");
  out.layer("sim.messages_lost", static_cast<double>(res.messages_lost), "count");
  out.layer("bench.traced_run_s", traced_s, "s");
  out.layer("bench.trace_overhead_s", median(out.timing["traced_run_s"]) - run_s,
            "s", true);
  out.layer("bench.verify_s", verify_s, "s");
}

}  // namespace perfbench
