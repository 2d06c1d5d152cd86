// Shared plumbing of the benchmark driver: command-line options, the raw
// record run.py aggregates, wall-clock spans, peak RSS, the paper §VI fleet
// and the replays the traced runs use to time single layers from outside.
//
// The driver only calls public entry points of the S-CORE libraries. Per-layer
// numbers come from spans around those calls, from the reports the program
// already returns, or from replays of one layer's public functions on the
// workload's own world — nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/cached_cost_model.hpp"
#include "topology/topology.hpp"
#include "traffic/generator.hpp"
#include "traffic/traffic_matrix.hpp"
#include "util/exec_policy.hpp"

namespace perfbench {

namespace core = score::core;
namespace topo = score::topo;
namespace traffic = score::traffic;
namespace util = score::util;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the control plane's unix socket (inside the checkout).
  std::string workdir = ".";
};

/// A per-layer number. `computed` marks values derived from a replay or a
/// difference rather than measured around the workload's own calls.
struct Layer {
  double value = 0.0;
  std::string unit;
  bool computed = false;
};

/// Everything one invocation measured; main() prints it as one JSON object
/// and run.py turns it into the result line.
struct RawResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Wall-clock samples, one per repetition (setup_s, run_s, ...).
  std::map<std::string, std::vector<double>> timing;
  /// Deterministic end-to-end values, one per repetition; they must repeat
  /// bit for bit.
  std::map<std::string, std::vector<double>> exact;
  /// Values measured once per invocation (peak_rss_mb, verify_s, ...).
  std::map<std::string, double> once;
  std::map<std::string, Layer> layers;
  /// Raw latency samples run.py reduces to percentiles.
  std::map<std::string, std::vector<double>> distributions;
  /// The deterministic metrics of the pass on the second seed.
  std::map<std::string, double> second_seed;

  /// Count `ops` attempted operations as failed, with the reason.
  void fail(const std::string& why, std::uint64_t ops = 1);
  void layer(const std::string& name, double value, const std::string& unit,
             bool computed = false) {
    layers[name] = Layer{value, unit, computed};
  }
  std::string to_json() const;
};

/// Peak resident set of this process so far, in MB (VmHWM).
double peak_rss_mb();

/// Seconds spent in each set-up call, in the order they run.
struct SetupSpans {
  double topology_s = 0.0;
  double generate_s = 0.0;
  double place_s = 0.0;
  double bind_s = 0.0;
  double total() const { return topology_s + generate_s + place_s + bind_s; }
};

/// The paper §VI fleet on one topology: 16 VM slots per host at 50%
/// occupancy, random initial placement, traffic and placement drawn from
/// `seed` and `seed + 1`. `model` is bound to (alloc, tm).
struct Fleet {
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<traffic::TrafficMatrix> tm;
  std::unique_ptr<core::Allocation> alloc;
  std::unique_ptr<core::CachedCostModel> model;
  SetupSpans spans;
};

enum class TopologyKind { kFatTree, kCanonical };

Fleet build_fleet(TopologyKind kind, std::size_t size, std::uint64_t seed);

/// Paper fleet capacity (16 slots, 256 MB and one core per slot).
core::ServerCapacity paper_capacity();

/// Traffic generator settings of the paper fleet for `num_vms` VMs.
traffic::GeneratorConfig paper_generator(std::size_t num_vms,
                                         std::uint64_t seed);

/// Adds extra fleet builds to `samples` until it holds `count` or `budget_s`
/// has passed: a cheap set-up needs more samples than the repetitions give
/// for a steady median.
void sample_setup(std::vector<double>& samples, TopologyKind kind, std::size_t size,
                  std::uint64_t seed, std::size_t count, double budget_s);

/// Set-up spans as per-layer metrics (topology/traffic/baselines/core).
void report_setup_layers(RawResult& out, const SetupSpans& spans);

/// Core replays on the workload's own allocation and matrix, as per-layer
/// metrics: evaluate / migration_delta / apply_migration per call, and the
/// ShardedCostOracle's full and touched-set begin_pass plus reconcile over
/// partition_vms(num_vms, tokens) under `policy`. Works on copies; the
/// caller's allocation is not changed.
void replay_core(RawResult& out, const topo::Topology& topology,
                 const core::Allocation& alloc,
                 const traffic::TrafficMatrix& tm, std::size_t tokens,
                 const util::ExecPolicy& policy);

/// encode_token / decode_token on a full token of `num_vms` entries.
/// Returns (encode_ns + decode_ns) for one hop.
double replay_token_codec(RawResult& out, std::size_t num_vms);

/// Calls rep(i) for i = 0, 1, ... until at least `min_reps` calls ran and
/// `seconds` have passed since the first one started.
template <class Fn>
void repeat_for(double seconds, std::size_t min_reps, Fn&& rep) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < min_reps || seconds_since(start) < seconds; ++i) {
    rep(i);
  }
}

/// Median of a non-empty sample vector.
double median(std::vector<double> v);

}  // namespace perfbench
