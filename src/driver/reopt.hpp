// The re-optimisation step the continuous and streaming engines share: token
// rounds on a live state through either execution mode, and the
// fresh-placement reference each step is measured against. Internal to
// score_continuous.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/placement.hpp"
#include "core/cached_cost_model.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "util/exec_policy.hpp"

namespace score::driver {

/// Throws std::invalid_argument unless `mode` is centralized or distributed.
void validate_mode(const std::string& mode);

/// One re-optimisation step and its fresh reference, as both engines
/// configure them (fields as in ContinuousConfig).
struct ReoptStep {
  std::string mode;
  std::size_t tokens = 1;
  util::ExecPolicy exec = util::ExecPolicy::seq();
  std::size_t iterations = 0;  ///< token-round budget of one step
  core::EngineConfig engine;
  hypervisor::RuntimeConfig runtime;
  baselines::PlacementStrategy placement = baselines::PlacementStrategy::kRandom;
  core::ServerCapacity server_capacity;
  core::VmSpec vm_spec;
  std::size_t reopt_iterations = 0;  ///< fresh reference's iteration cap
  double precopy_factor = 1.3;  ///< centralized migrated-MB model
};

struct ReoptResult {
  std::size_t migrations = 0;
  std::size_t rounds = 0;
  double final_cost = 0.0;  ///< as the driver reports it
  double migrated_mb = 0.0;
};

/// Run token rounds on `alloc` under `model` (bound to `alloc` and `tm`). A
/// non-empty `restrict_shards` confines centralized rounds to those token
/// shards (MultiTokenConfig::restrict_shards); distributed mode rejects it.
ReoptResult run_reopt(const core::CachedCostModel& model,
                      core::Allocation& alloc, const traffic::TrafficMatrix& tm,
                      const ReoptStep& step,
                      const std::vector<std::size_t>& restrict_shards = {});

/// What starting over on `tm` would achieve: a fresh placement of every VM
/// drawn from `seed`, then the centralized Round-Robin loop run to stability
/// (at most `step.reopt_iterations` rounds). Returns its Eq. (2) cost.
double fresh_reference_cost(const topo::Topology& topology,
                            const traffic::TrafficMatrix& tm,
                            const ReoptStep& step, std::uint64_t seed);

}  // namespace score::driver
