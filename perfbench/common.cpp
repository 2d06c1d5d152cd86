#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "baselines/placement.hpp"
#include "core/link_weights.hpp"
#include "core/migration_engine.hpp"
#include "core/sharded_cost_oracle.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/token_codec.hpp"
#include "topology/canonical_tree.hpp"
#include "topology/fat_tree.hpp"
#include "traffic/generator.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace score;

namespace {

std::string quote(const std::string& s) {
  std::string q = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      q += '\\';
      q += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      q += ' ';
    } else {
      q += c;
    }
  }
  return q + '"';
}

// JSON has no NaN/inf; run.py treats null as "not measured".
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string numbers(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ',';
    s += number(v[i]);
  }
  return s + ']';
}

template <class Map, class Fn>
std::string object(const Map& m, Fn&& value) {
  std::string s = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) s += ',';
    first = false;
    s += quote(k) + ':' + value(v);
  }
  return s + '}';
}

// Nanoseconds per call of `fn` over `calls` calls.
template <class Fn>
double ns_per_call(std::size_t calls, Fn&& fn) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) fn(i);
  return calls == 0 ? 0.0 : 1e9 * seconds_since(start) / static_cast<double>(calls);
}

}  // namespace

void RawResult::fail(const std::string& why, std::uint64_t ops) {
  failed += ops;
  failures.push_back(why);
}

std::string RawResult::to_json() const {
  std::string s = "{";
  s += "\"attempted\":" + std::to_string(attempted);
  s += ",\"failed\":" + std::to_string(failed);
  s += ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) s += ',';
    s += quote(failures[i]);
  }
  s += "]";
  s += ",\"timing\":" + object(timing, numbers);
  s += ",\"exact\":" + object(exact, numbers);
  s += ",\"once\":" + object(once, number);
  s += ",\"layers\":" + object(layers, [](const Layer& l) {
    return "{\"value\":" + number(l.value) + ",\"unit\":" + quote(l.unit) +
           ",\"computed\":" + (l.computed ? "true" : "false") + "}";
  });
  s += ",\"distributions\":" + object(distributions, numbers);
  s += ",\"second_seed\":" + object(second_seed, number);
  return s + "}";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

core::ServerCapacity paper_capacity() {
  core::ServerCapacity cap;
  cap.vm_slots = 16;
  cap.ram_mb = 16 * 256.0;
  cap.cpu_cores = 16.0;
  return cap;
}

traffic::GeneratorConfig paper_generator(std::size_t num_vms,
                                         std::uint64_t seed) {
  traffic::GeneratorConfig gen;
  gen.num_vms = num_vms;
  gen.mean_service_size = 24;
  gen.intra_service_degree = 4.0;
  gen.cross_service_prob = 0.3;
  gen.seed = seed;
  return gen;
}

Fleet build_fleet(TopologyKind kind, std::size_t size, std::uint64_t seed) {
  Fleet f;
  auto t = Clock::now();
  if (kind == TopologyKind::kFatTree) {
    f.topology = std::make_unique<topo::FatTree>(topo::FatTreeConfig{.k = size});
  } else {
    topo::CanonicalTreeConfig cfg;
    cfg.racks = size;
    f.topology = std::make_unique<topo::CanonicalTree>(cfg);
  }
  f.spans.topology_s = seconds_since(t);

  const core::ServerCapacity cap = paper_capacity();
  const std::size_t num_vms = f.topology->num_hosts() * cap.vm_slots / 2;
  t = Clock::now();
  f.tm = std::make_unique<traffic::TrafficMatrix>(
      traffic::generate_traffic(paper_generator(num_vms, seed)));
  f.spans.generate_s = seconds_since(t);

  t = Clock::now();
  util::Rng rng(seed + 1);
  f.alloc = std::make_unique<core::Allocation>(baselines::make_allocation(
      *f.topology, cap, num_vms, core::VmSpec{},
      baselines::PlacementStrategy::kRandom, rng));
  f.spans.place_s = seconds_since(t);

  t = Clock::now();
  f.model = std::make_unique<core::CachedCostModel>(
      *f.topology, core::LinkWeights::exponential(f.topology->max_level()));
  f.model->bind(*f.alloc, *f.tm);
  f.spans.bind_s = seconds_since(t);
  return f;
}

void sample_setup(std::vector<double>& samples, TopologyKind kind, std::size_t size,
                  std::uint64_t seed, std::size_t count, double budget_s) {
  const auto start = Clock::now();
  while (samples.size() < count && seconds_since(start) < budget_s) {
    samples.push_back(build_fleet(kind, size, seed).spans.total());
  }
}

void report_setup_layers(RawResult& out, const SetupSpans& spans) {
  out.layer("topology.build_s", spans.topology_s, "s");
  out.layer("traffic.generate_s", spans.generate_s, "s");
  out.layer("baselines.place_s", spans.place_s, "s");
  out.layer("core.bind_s", spans.bind_s, "s");
}

void replay_core(RawResult& out, const topo::Topology& topology,
                 const core::Allocation& alloc,
                 const traffic::TrafficMatrix& tm, std::size_t tokens,
                 const util::ExecPolicy& policy) {
  const core::LinkWeights weights =
      core::LinkWeights::exponential(topology.max_level());
  core::Allocation a = alloc;
  core::CachedCostModel model(topology, weights);
  model.bind(a, tm);
  const core::MigrationEngine engine(model);

  // An evenly strided sample of at most 20k token holders.
  constexpr std::size_t kSample = 20000;
  const std::size_t n = a.num_vms();
  const std::size_t stride = std::max<std::size_t>(1, n / kSample);
  std::vector<core::VmId> sample;
  for (std::size_t u = 0; u < n; u += stride) {
    sample.push_back(static_cast<core::VmId>(u));
  }

  std::vector<core::Decision> decisions(sample.size());
  const double evaluate_ns = ns_per_call(sample.size(), [&](std::size_t i) {
    decisions[i] = engine.evaluate(a, tm, sample[i]);
  });

  // Moves Theorem 1 accepts, in sample order, kept only while still feasible
  // after the earlier ones (planned on a scratch copy, so the timed loops
  // below never hit the throwing path).
  std::vector<std::pair<core::VmId, core::ServerId>> moves;
  core::Allocation plan = a;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const core::Decision& d = decisions[i];
    if (d.migrate && plan.can_host(d.target, plan.spec(sample[i]))) {
      plan.migrate(sample[i], d.target);
      moves.emplace_back(sample[i], d.target);
    }
  }

  double sink = 0.0;
  const double delta_ns = ns_per_call(moves.size(), [&](std::size_t i) {
    sink += model.migration_delta(a, tm, moves[i].first, moves[i].second);
  });
  std::vector<std::pair<core::VmId, core::ServerId>> undo;
  for (const auto& [vm, target] : moves) undo.emplace_back(vm, a.server_of(vm));
  const double apply_ns = ns_per_call(moves.size(), [&](std::size_t i) {
    model.apply_migration(a, tm, moves[i].first, moves[i].second);
  });
  if (!std::isfinite(sink)) throw std::logic_error("non-finite Lemma-3 delta");

  // ShardedCostOracle: full snapshot, then touched-set resyncs that move the
  // master forward (the planned moves) and back again.
  core::ShardedCostOracle oracle(topology, weights,
                                 core::partition_vms(n, tokens));
  core::Allocation master = alloc;
  std::vector<double> full, touched, reconcile;
  std::vector<core::VmId> touched_vms;
  for (const auto& m : moves) touched_vms.push_back(m.first);
  for (int rep = 0; rep < 3; ++rep) {
    auto t = Clock::now();
    oracle.begin_pass(master, tm, policy);
    full.push_back(1e9 * seconds_since(t));
    for (const auto& step : {moves, undo}) {
      for (const auto& [vm, target] : step) master.migrate_unchecked(vm, target);
      t = Clock::now();
      oracle.begin_pass(master, tm, policy, touched_vms);
      touched.push_back(1e9 * seconds_since(t));
    }
    t = Clock::now();
    sink += oracle.reconcile(master, tm, policy);
    reconcile.push_back(1e9 * seconds_since(t));
  }
  if (!std::isfinite(sink)) throw std::logic_error("non-finite reconcile");

  out.layer("core.evaluate_ns", evaluate_ns, "ns", true);
  out.layer("core.migration_delta_ns", delta_ns, "ns", true);
  out.layer("core.apply_migration_ns", apply_ns, "ns", true);
  out.layer("core.begin_pass_full_ns", median(full), "ns", true);
  out.layer("core.begin_pass_touched_ns", median(touched), "ns", true);
  out.layer("core.begin_pass_touched_vms",
            static_cast<double>(touched_vms.size()), "count", true);
  out.layer("core.reconcile_ns", median(reconcile), "ns", true);
}

double replay_token_codec(RawResult& out, std::size_t num_vms) {
  hypervisor::Token token;
  token.policy = hypervisor::TokenPolicyId::kRoundRobin;
  token.holder = hypervisor::addr_of_vm(0);
  token.entries.resize(num_vms);
  for (std::size_t id = 0; id < num_vms; ++id) {
    token.entries[id].vm_id = hypervisor::addr_of_vm(static_cast<core::VmId>(id));
    token.entries[id].level = static_cast<std::uint8_t>(id % 4);
  }
  // Enough calls for ~8 MB of frames either way, at least 8.
  const std::size_t calls =
      std::max<std::size_t>(8, (8u << 20) / hypervisor::token_frame_bytes(num_vms));
  std::vector<std::uint8_t> frame;
  const double encode_ns = ns_per_call(
      calls, [&](std::size_t) { frame = hypervisor::encode_token(token); });
  std::uint64_t sink = 0;
  const double decode_ns = ns_per_call(calls, [&](std::size_t) {
    sink += hypervisor::decode_token(frame).entries.size();
  });
  if (sink != calls * num_vms) throw std::logic_error("token codec round trip");
  out.layer("hypervisor.token_encode_ns", encode_ns, "ns", true);
  out.layer("hypervisor.token_decode_ns", decode_ns, "ns", true);
  out.layer("hypervisor.token_bytes", static_cast<double>(frame.size()), "B");
  return encode_ns + decode_ns;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

}  // namespace perfbench
