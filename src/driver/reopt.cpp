#include "driver/reopt.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/token_policy.hpp"
#include "driver/multi_token.hpp"
#include "driver/simulation.hpp"
#include "util/rng.hpp"

namespace score::driver {

void validate_mode(const std::string& mode) {
  if (mode != "centralized" && mode != "distributed") {
    throw std::invalid_argument("mode must be 'centralized' or 'distributed', "
                                "got '" + mode + "'");
  }
}

ReoptResult run_reopt(const core::CachedCostModel& model,
                      core::Allocation& alloc, const traffic::TrafficMatrix& tm,
                      const ReoptStep& step,
                      const std::vector<std::size_t>& restrict_shards) {
  ReoptResult out;
  if (step.mode == "distributed") {
    if (!restrict_shards.empty()) {
      throw std::logic_error("run_reopt: restricted rounds are centralized-only");
    }
    hypervisor::RuntimeConfig rcfg = step.runtime;
    rcfg.engine = step.engine;
    rcfg.iterations = step.iterations;
    hypervisor::DistributedScoreRuntime runtime(model, alloc, tm, rcfg);
    const hypervisor::RuntimeResult res = runtime.run();
    out.migrations = res.total_migrations;
    out.rounds = res.rounds();
    out.final_cost = res.final_cost;
    out.migrated_mb = res.migrated_mb;
    return out;
  }
  const core::MigrationEngine engine(model, step.engine);
  MultiTokenConfig mcfg;
  mcfg.tokens = std::max<std::size_t>(1, step.tokens);
  mcfg.iterations = step.iterations;
  mcfg.stop_when_stable = true;
  mcfg.policy = step.exec;
  mcfg.restrict_shards = restrict_shards;
  MultiTokenSimulation sim(engine, alloc, tm);
  const SimResult res = sim.run(mcfg);
  out.migrations = res.total_migrations;
  out.rounds = res.iterations.size();
  out.final_cost = res.final_cost;
  for (const MigrationRecord& m : res.migration_log) {
    out.migrated_mb += step.precopy_factor * alloc.spec(m.vm).ram_mb;
  }
  return out;
}

double fresh_reference_cost(const topo::Topology& topology,
                            const traffic::TrafficMatrix& tm,
                            const ReoptStep& step, std::uint64_t seed) {
  util::Rng rng(seed);
  core::Allocation fresh =
      baselines::make_allocation(topology, step.server_capacity, tm.num_vms(),
                                 step.vm_spec, step.placement, rng);
  core::CachedCostModel model(topology,
                              core::LinkWeights::exponential(topology.max_level()));
  model.bind(fresh, tm);
  const core::MigrationEngine engine(model, step.engine);
  core::RoundRobinPolicy rr;
  SimConfig scfg;
  scfg.iterations = step.reopt_iterations;
  scfg.stop_when_stable = true;
  ScoreSimulation sim(engine, rr, fresh, tm);
  return sim.run(scfg).final_cost;
}

}  // namespace score::driver
