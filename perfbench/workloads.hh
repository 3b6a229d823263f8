/**
 * @file
 * The benchmark's three workloads: fleet shape, platform options and the
 * arrival traces, all derived from one seed.
 *
 * The program under test receives only what this file generates: a
 * server count, PlatformOptions / CellOptions, function specs and
 * pre-materialized arrival traces. The same (workload, seed) always
 * yields byte-identical inputs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/platform.hh"
#include "core/sharded_platform.hh"
#include "workload/trace.hh"

namespace perfbench {

/** Everything one round hands to the program under test. */
struct WorkloadInput
{
    std::string name;
    std::size_t servers = 0;
    infless::core::PlatformOptions opts;
    /** cells == 1 runs the flat platform (ShardedPlatform delegates). */
    infless::core::CellOptions cellOpts;
    std::vector<infless::core::FunctionSpec> specs;
    /** One trace per spec; every arrival lies in [0, window). */
    std::vector<infless::workload::ArrivalTrace> traces;
    /** Arrival window: the simulated span traffic is offered over. */
    infless::sim::Tick window = 0;
    /** End of the run: window plus a drain grace, so nothing is left in
     *  flight. */
    infless::sim::Tick horizon = 0;
    /** run() is called in steps of this length (a multiple of the cell
     *  window) so per-step invariants can be sampled and every step
     *  timed on its own. */
    infless::sim::Tick step = 0;

    /** Requests generated inside the window, over all functions. */
    std::int64_t generated() const;
};

/** Names of every workload, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Independent replicas one round of @p name runs. Modelled outcomes of
 * one replica swing with its seed (scaling decisions are path
 * dependent), so a round pools several to report steady figures.
 */
std::size_t replicasPerRound(const std::string &name);

/** True when @p name is a known workload. */
bool knownWorkload(const std::string &name);

/**
 * Build the inputs of workload @p name from @p seed (trace generation
 * included). The worker-thread count is min(2, hardware threads);
 * modelled outcomes do not depend on it.
 */
WorkloadInput makeInput(const std::string &name, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
