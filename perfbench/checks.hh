/**
 * @file
 * The modelled outcome of one round and the properties it must have.
 *
 * Checks compare a run against properties the method guarantees, never
 * against stored output, so they hold on every seed and survive any
 * change that keeps the simulation correct. Each failure names the
 * property it broke.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Per-function tallies, read from the per-function metrics path. */
struct FunctionOutcome
{
    std::int64_t arrivals = 0;
    std::int64_t completions = 0;
    std::int64_t drops = 0;
    std::int64_t violations = 0;
    /** Smallest end-to-end latency observed (ticks; 0 if none). */
    std::int64_t minLatency = 0;
    /** Fastest execution of the function's model at any batchsize on
     *  any scheduler grid configuration (ticks). */
    std::int64_t execFloor = 0;

    bool operator==(const FunctionOutcome &) const = default;
};

/** Quarantined servers of one cell against its ejection allowance,
 *  sampled after a run() step. */
struct QuarantineSample
{
    std::size_t cell = 0;
    std::int64_t at = 0;
    std::size_t quarantined = 0;
    /** floor(maxEjectFraction x live servers of the cell). */
    std::size_t allowed = 0;

    bool operator==(const QuarantineSample &) const = default;
};

/**
 * Everything a round modelled. Two rounds of the same inputs must agree
 * on every field (operator==): across repeats, with profiling on or
 * off, and at any worker-thread count.
 */
struct Outcome
{
    // Inputs ----------------------------------------------------------------
    /** Timestamps generated inside the arrival window. */
    std::int64_t generated = 0;
    double windowSec = 0.0;

    // Fleet totals (the total-metrics path) ---------------------------------
    std::int64_t arrivals = 0;
    std::int64_t completions = 0;
    std::int64_t drops = 0;
    std::int64_t violations = 0;
    std::int64_t inFlight = 0;
    std::vector<FunctionOutcome> functions;

    double meanCpuCores = 0.0;
    double meanGpus = 0.0;
    double capacityCpuCores = 0.0;
    double capacityGpus = 0.0;
    std::vector<QuarantineSample> quarantine;

    // End-to-end modelled metrics --------------------------------------------
    double goodputRps = 0.0;
    double latencyP50Ms = 0.0;
    double latencyP99Ms = 0.0;
    double throughputPerResource = 0.0;

    // Per-layer counts (deterministic) ---------------------------------------
    std::uint64_t events = 0;
    std::uint64_t eventCancellations = 0;
    std::uint64_t eventCompactions = 0;
    std::vector<std::uint64_t> cellEvents;
    std::uint64_t scheduleCalls = 0;
    std::int64_t launches = 0;
    std::int64_t coldLaunches = 0;
    double batchFillMean = 0.0;
    double queueWaitP50Ms = 0.0;
    std::uint64_t execCacheHits = 0;
    std::uint64_t execCacheMisses = 0;
    std::int64_t sheds = 0;
    std::int64_t limiterSheds = 0;
    std::int64_t crashes = 0;
    std::int64_t retries = 0;
    std::int64_t lostBatchRequests = 0;
    std::int64_t ejections = 0;
    std::int64_t readmissions = 0;

    bool operator==(const Outcome &) const = default;

    /** Requests whose end the run never accounted for. */
    std::int64_t unaccounted() const
    {
        return generated - completions - drops;
    }
};

/**
 * Check @p o against every property the method guarantees.
 * @return One line per broken property, "<property>: <detail>"; empty
 *         when all hold.
 */
std::vector<std::string> checkOutcome(const Outcome &o);

/**
 * Require two rounds of the same inputs to have modelled the same
 * outcome. @p property names what was varied between them.
 * @return Empty, or one "<property>: <detail>" line.
 */
std::vector<std::string> checkSame(const Outcome &a, const Outcome &b,
                                   const std::string &property);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
