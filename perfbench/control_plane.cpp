// control-plane — the multi-process scheduler + agent daemons.
//
// The benchmark process is the scheduler (RemoteAgentExecutor under
// hypervisor::DistributedScoreRuntime); three score_agent processes are the
// daemons, over a unix socket inside the checkout. The world is the
// canonical tree at 128 racks x 5 hosts with 1,024 VMs and the
// highest-level-first token, built with tools::build_world from the flags the
// agents also get. This is the only workload that runs util/socket,
// util/reliable_link, the task codec, the remote executor and the agent
// daemon.
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <optional>
#include <thread>

#include "hypervisor/remote_executor.hpp"
#include "timed_executor.hpp"
#include "util/flags.hpp"
#include "util/socket.hpp"
#include "workloads.hpp"
#include "world_builder.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace score;

constexpr std::size_t kAgents = 3;
constexpr double kTimeoutS = 30.0;
// The unix socket loses nothing, so a link retransmission can only come from
// a timer that fired while a descheduled peer had not answered yet. One
// second keeps host scheduling stalls from counting as protocol failures; a
// frame that is really lost is still retransmitted and fails the run.
constexpr double kRetransmitTimeoutS = 1.0;
// TaskType values 1..9, by name, for the wire counters.
constexpr std::array<const char*, 9> kTaskNames = {
    "hello", "init", "deliver", "timer", "apply", "shutdown", "result", "final", "adopt"};

std::vector<std::string> world_args(std::uint64_t seed) {
  // Two rounds: every seed tried is still migrating in round 2, so the
  // stability stop never ends a run early and all seeds run the same rounds.
  return {"--topology", "canonical", "--racks", "128", "--hosts-per-rack", "5",
          "--vms",      "1024",      "--policy", "hlf", "--iterations",     "2",
          "--seed",     std::to_string(seed)};
}

util::Flags parse_world(const std::vector<std::string>& args) {
  util::Flags flags;
  tools::register_world_flags(flags);
  std::vector<const char*> argv = {"perfbench"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  if (!flags.parse(static_cast<int>(argv.size()), argv.data())) {
    throw std::invalid_argument("world flags rejected");
  }
  return flags;
}

/// The spawned score_agent daemons. Reaped with a deadline; any still alive
/// on destruction (an error path) are killed and reaped.
class AgentFleet {
 public:
  AgentFleet() = default;
  AgentFleet(const AgentFleet&) = delete;
  AgentFleet& operator=(const AgentFleet&) = delete;
  ~AgentFleet() {
    for (const pid_t pid : pids_) kill(pid, SIGKILL);
    for (const pid_t pid : pids_) waitpid(pid, nullptr, 0);
  }

  void spawn(const std::string& address, const std::vector<std::string>& args) {
    std::vector<std::string> argv_s = {PERFBENCH_AGENT_BIN, "--connect", address,
                                       "--connect-timeout", "30", "--retransmit-timeout",
                                       std::to_string(kRetransmitTimeoutS)};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    // The benchmark's stdout carries its result; daemon chatter goes to
    // stderr.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, PERFBENCH_AGENT_BIN, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + argv_s[0]);
    pids_.push_back(pid);
  }

  struct Exit {
    int code = -1;  ///< -1 = killed or abnormal exit
    double max_rss_mb = 0.0;
  };

  /// Reap every daemon, killing those still running after `timeout_s`.
  std::vector<Exit> wait_all(double timeout_s) {
    std::vector<Exit> exits;
    const auto start = Clock::now();
    for (const pid_t pid : pids_) {
      int status = 0;
      rusage usage{};
      while (wait4(pid, &status, WNOHANG, &usage) == 0) {
        if (seconds_since(start) > timeout_s) {
          kill(pid, SIGKILL);
          wait4(pid, &status, 0, &usage);
          status = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      Exit e;
      e.code = status != -1 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      e.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB
      exits.push_back(e);
    }
    pids_.clear();
    return exits;
  }

 private:
  std::vector<pid_t> pids_;
};

/// What a run leaves to compare: the protocol-level outcome.
struct Outcome {
  hypervisor::RuntimeResult result;
  std::vector<core::ServerId> servers;
  double run_s = 0.0;
};

Outcome collect(const hypervisor::RuntimeResult& result, const core::Allocation& alloc,
                double run_s) {
  Outcome o{result, {}, run_s};
  for (core::VmId vm = 0; vm < alloc.num_vms(); ++vm) o.servers.push_back(alloc.server_of(vm));
  return o;
}

/// The in-process reference: same flags, LocalAgentExecutor.
Outcome in_process(std::uint64_t seed) {
  const tools::World w = tools::build_world(parse_world(world_args(seed)));
  hypervisor::DistributedScoreRuntime runtime(*w.model, *w.alloc, *w.tm, w.runtime);
  const auto t = Clock::now();
  const hypervisor::RuntimeResult r = runtime.run();
  return collect(r, *w.alloc, seconds_since(t));
}

struct Tracing {
  std::optional<TimedExecutor> timed;
  std::array<std::uint64_t, kTaskNames.size()> frames{};
  std::array<std::uint64_t, kTaskNames.size()> bytes{};
};

struct Run {
  Outcome outcome;
  double setup_s = 0.0;
  double agents_rss_mb = 0.0;
  hypervisor::RecoveryStats stats;
  std::vector<AgentFleet::Exit> exits;
  std::map<std::string, double> exact;
};

Run remote(const Options& opt, std::uint64_t seed, std::size_t rep, Tracing* tracing) {
  Run r;
  const std::vector<std::string> args = world_args(seed);
  const auto t0 = Clock::now();
  util::ServerSocket server = util::ServerSocket::listen(
      "unix:" + opt.workdir + "/cp-" + std::to_string(getpid()) + "-" +
      std::to_string(rep) + ".sock");
  AgentFleet fleet;
  for (std::size_t i = 0; i < kAgents; ++i) fleet.spawn(server.address(), args);
  tools::World w = tools::build_world(parse_world(args));
  std::vector<util::Socket> sockets;
  for (std::size_t i = 0; i < kAgents; ++i) {
    std::optional<util::Socket> s = server.accept_timeout(kTimeoutS);
    if (!s) throw std::runtime_error("agent did not connect");
    sockets.push_back(std::move(*s));
  }
  server.close();
  r.setup_s = seconds_since(t0);
  {
    hypervisor::RemoteExecutorConfig cfg;
    cfg.hello_timeout_s = kTimeoutS;
    cfg.result_timeout_s = kTimeoutS;
    cfg.link.retransmit_timeout_s = kRetransmitTimeoutS;
    hypervisor::RemoteAgentExecutor executor(std::move(sockets), w.fingerprint, cfg);
    hypervisor::AgentExecutor* exec = &executor;
    if (tracing != nullptr) {
      executor.set_wire_tap([tracing](const hypervisor::RemoteAgentExecutor::WireRecord& rec) {
        const auto i = static_cast<std::size_t>(rec.type) - 1;
        if (i >= kTaskNames.size()) throw std::logic_error("unknown task type");
        ++tracing->frames[i];
        tracing->bytes[i] += rec.bytes;
      });
      tracing->timed.emplace(executor, true);
      exec = &*tracing->timed;
    }
    hypervisor::DistributedScoreRuntime runtime(*w.model, *w.alloc, *w.tm, w.runtime, *exec);
    const auto t = Clock::now();
    const hypervisor::RuntimeResult res = runtime.run();
    r.outcome = collect(res, *w.alloc, seconds_since(t));
    r.stats = executor.recovery_stats();
  }
  r.exits = fleet.wait_all(kTimeoutS);
  for (const AgentFleet::Exit& e : r.exits) r.agents_rss_mb += e.max_rss_mb;
  return r;
}

// Output check against the in-process run with the same flags: trace hash,
// final epoch and ring position, every VM's server; every agent exits 0; a
// clean transport needs no resend or retransmission.
std::string check(Run& r, const Outcome& ref) {
  const hypervisor::RuntimeResult& a = r.outcome.result;
  const hypervisor::RuntimeResult& b = ref.result;
  for (std::size_t i = 0; i < r.exits.size(); ++i) {
    if (r.exits[i].code != 0) {
      return "control-plane: agent " + std::to_string(i) + " exited with " +
             std::to_string(r.exits[i].code);
    }
  }
  if (a.trace_hash != b.trace_hash) return "control-plane: trace hash differs from in-process";
  if (a.final_epoch != b.final_epoch || a.final_ring_pos != b.final_ring_pos) {
    return "control-plane: final epoch / ring position differ from in-process";
  }
  if (r.outcome.servers != ref.servers) return "control-plane: final allocation differs";
  if (r.stats.tasks_resent != 0 || r.stats.link_retransmitted_frames != 0) {
    return "control-plane: resends on a clean transport";
  }
  std::uint64_t holds = 0;
  for (const auto& it : a.iterations) holds += it.holds;
  r.exact = {
      {"cost_reduction_pct", 100.0 * a.reduction()},
      {"cost_ratio_vs_fresh", a.final_cost / b.final_cost},
      {"sim_converge_s", a.duration_s},
      {"control_mb", static_cast<double>(a.control_bytes) / 1e6},
      {"holds", static_cast<double>(holds)},
  };
  return "";
}

}  // namespace

void run_control_plane(const Options& opt, RawResult& out) {
  double verify_s = 0.0;
  double agents_rss_mb = 0.0;
  std::map<std::uint64_t, Outcome> references;
  std::size_t rep = 0;
  auto op = [&](std::uint64_t seed, Tracing* tracing) {
    std::optional<Run> r;
    ++out.attempted;
    try {
      r = remote(opt, seed, rep++, tracing);
      agents_rss_mb = std::max(agents_rss_mb, r->agents_rss_mb);
      const auto t = Clock::now();
      if (!references.count(seed)) references.emplace(seed, in_process(seed));
      const std::string error = check(*r, references.at(seed));
      verify_s += seconds_since(t);
      if (!error.empty()) {
        out.fail(error);
        r.reset();
      }
    } catch (const std::exception& e) {
      out.fail(std::string("control-plane: ") + e.what());
      r.reset();
    }
    return r;
  };
  auto record = [&](const Run& r, const char* run_key) {
    out.timing["setup_s"].push_back(r.setup_s);
    out.timing[run_key].push_back(r.outcome.run_s);
    out.timing["updates_per_s"].push_back(r.exact.at("holds") / r.outcome.run_s);
    for (const auto& [k, v] : r.exact) {
      if (k != "holds") out.exact[k].push_back(v);
    }
  };

  if (!opt.trace) {
    repeat_for(opt.seconds, 3, [&](std::size_t) {
      if (auto r = op(opt.seed, nullptr)) record(*r, "run_s");
    });
    // The scheduler's own peak plus the largest concurrent agent total.
    out.once["peak_rss_mb"] = peak_rss_mb() + agents_rss_mb;
    out.once["verify_s"] = verify_s;
    return;
  }

  for (int i = 0; i < 2; ++i) {
    if (auto r = op(opt.seed, nullptr)) record(*r, "run_s");
  }
  std::optional<Run> traced;
  std::optional<Tracing> traced_tracing;
  for (int i = 0; i < 2; ++i) {
    Tracing tracing;
    if (auto r = op(opt.seed, &tracing)) {
      record(*r, "traced_run_s");
      traced = std::move(r);
      traced_tracing = std::move(tracing);
    }
  }
  // One pass on a second seed, so claims can be checked on a seed no
  // change was tuned on.
  if (auto r = op(opt.seed + kSecondSeedOffset, nullptr)) {
    out.second_seed = r->exact;
    out.second_seed.erase("holds");
    out.second_seed["run_s"] = r->outcome.run_s;
  }
  if (!traced || out.timing["run_s"].empty()) return;

  // In-process reference wall time on the same world, median of five.
  std::vector<double> local_s;
  for (int i = 0; i < 5; ++i) local_s.push_back(in_process(opt.seed).run_s);
  const double run_s = median(out.timing["run_s"]);
  const double inprocess_s = median(local_s);

  const tools::World w = tools::build_world(parse_world(world_args(opt.seed)));
  {
    // build_world is one call; its steps are replayed one by one on the same
    // flags, in its order, to give the set-up spans.
    const util::Flags flags = parse_world(world_args(opt.seed));
    SetupSpans spans;
    auto t = Clock::now();
    const std::unique_ptr<topo::Topology> topology = tools::make_topology(flags);
    spans.topology_s = seconds_since(t);
    traffic::GeneratorConfig gen;
    gen.num_vms = static_cast<std::size_t>(flags.get_int("vms"));
    gen.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    t = Clock::now();
    const traffic::TrafficMatrix tm = traffic::generate_traffic(
        gen, tools::parse_intensity(flags.get_string("intensity")));
    spans.generate_s = seconds_since(t);
    core::ServerCapacity cap;
    cap.vm_slots = static_cast<std::size_t>(flags.get_int("slots"));
    cap.ram_mb = static_cast<double>(cap.vm_slots) * 256.0;
    cap.cpu_cores = static_cast<double>(cap.vm_slots);
    t = Clock::now();
    util::Rng rng(gen.seed + 1);
    const core::Allocation alloc = baselines::make_allocation(
        *topology, cap, gen.num_vms, core::VmSpec{},
        tools::parse_placement(flags.get_string("placement")), rng);
    spans.place_s = seconds_since(t);
    core::CachedCostModel model(*topology, w.model->weights());
    t = Clock::now();
    model.bind(alloc, tm);
    spans.bind_s = seconds_since(t);
    if (alloc.num_vms() != w.alloc->num_vms() || tm.num_pairs() != w.tm->num_pairs()) {
      throw std::logic_error("set-up replay built a different world");
    }
    report_setup_layers(out, spans);
    for (const char* name : {"topology.build_s", "traffic.generate_s", "baselines.place_s",
                             "core.bind_s"}) {
      out.layers[name].computed = true;
    }
    replay_core(out, *w.topology, *w.alloc, *w.tm, 1, util::ExecPolicy::seq());
  }
  const double codec_ns = replay_token_codec(out, w.alloc->num_vms());

  const Tracing& tr = *traced_tracing;
  const hypervisor::RuntimeResult& res = traced->outcome.result;
  const double traced_s = traced->outcome.run_s;
  out.layer("hypervisor.token_codec_share",
            codec_ns * static_cast<double>(res.token_messages) / 1e9 / run_s, "ratio", true);
  tr.timed->report(out);
  out.layer("hypervisor.runtime_self_s",
            traced_s - tr.timed->busy_s() - tr.timed->start_s() - tr.timed->finish_s(), "s",
            true);
  out.layer("hypervisor.remote_deliver_s", tr.timed->busy_s(), "s");
  out.distributions["hypervisor.remote_deliver_us"] = tr.timed->latencies_us();
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < kTaskNames.size(); ++i) {
    out.layer(std::string("util.wire.frames.") + kTaskNames[i],
              static_cast<double>(tr.frames[i]), "count");
    out.layer(std::string("util.wire.bytes.") + kTaskNames[i],
              static_cast<double>(tr.bytes[i]), "B");
    frames += tr.frames[i];
    bytes += tr.bytes[i];
  }
  out.layer("util.wire.frames", static_cast<double>(frames), "count");
  out.layer("util.wire.bytes", static_cast<double>(bytes), "B");
  const hypervisor::RecoveryStats& s = traced->stats;
  out.layer("hypervisor.pipelined_tasks", static_cast<double>(s.pipelined_tasks), "count");
  out.layer("hypervisor.max_inflight", static_cast<double>(s.max_inflight), "count");
  out.layer("hypervisor.tasks_resent", static_cast<double>(s.tasks_resent), "count");
  out.layer("util.link.retransmits", static_cast<double>(s.link_retransmitted_frames),
            "count");
  out.layer("hypervisor.inprocess_run_s", inprocess_s, "s");
  out.layer("hypervisor.transport_overhead_s", run_s - inprocess_s, "s", true);
  out.layer("sim.messages",
            static_cast<double>(res.token_messages + res.location_messages +
                                res.capacity_messages),
            "count");
  out.layer("sim.messages_lost", static_cast<double>(res.messages_lost), "count");
  out.layer("bench.traced_run_s", traced_s, "s");
  out.layer("bench.trace_overhead_s", median(out.timing["traced_run_s"]) - run_s, "s",
            true);
  out.layer("bench.verify_s", verify_s, "s");
}

}  // namespace perfbench
