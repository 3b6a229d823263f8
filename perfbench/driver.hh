/**
 * @file
 * Benchmark rounds through the program's public API, and the probes that
 * time single-layer functions on an object of the workload's size.
 */

#ifndef PERFBENCH_DRIVER_HH
#define PERFBENCH_DRIVER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.hh"
#include "metrics/stats.hh"
#include "obs/prof_scope.hh"
#include "spans.hh"

namespace perfbench {

/** One controller phase's profiler totals, summed over cells. */
struct PhaseTotals
{
    std::uint64_t count = 0;
    double totalUs = 0.0;

    double meanUs() const
    {
        return count == 0 ? 0.0 : totalUs / static_cast<double>(count);
    }
};

struct RoundOptions
{
    /** Turn on ObsOptions::profiling (the program's phase timers). */
    bool profiling = false;
    /** Worker threads; 0 keeps the workload's own count. */
    std::size_t threads = 0;
    /** Where to record spans; null records none. */
    SpanRecorder *spans = nullptr;
};

/** One replica: fresh inputs, a fresh platform, one full run. */
struct Replica
{
    Outcome outcome;
    /** End-to-end latency of every completed request. */
    infless::metrics::LatencyHistogram latency;
    /** Queue wait of every completed request. */
    infless::metrics::LatencyHistogram queueWait;
    /** Batches executed (the base of outcome.batchFillMean). */
    std::int64_t batches = 0;
    /** Beta-weighted resource-seconds allocated over the run. */
    double resourceSec = 0.0;
    /** Host seconds of trace generation, construction, deploy and
     *  injectTrace. */
    double setupSec = 0.0;
    /** Host seconds inside run(). */
    double runSec = 0.0;
    /** Host seconds of each run() call, one per step of the workload. */
    std::vector<double> stepSec;
    /** When set-up finished. */
    SpanRecorder::Clock::time_point setupDone;
    std::array<PhaseTotals, infless::obs::kPhaseCount> phases{};
    /** Worker threads the round ran on. */
    std::size_t threads = 1;
    /** Servers per cell: the fleet one scheduler and one cluster scan
     *  see. */
    std::size_t cellServers = 0;
};

/** Run one replica of workload @p name from @p seed. */
Replica runReplica(const std::string &name, std::uint64_t seed,
                   const RoundOptions &opts);

/**
 * Run one round of workload @p name: its replicasPerRound() replicas,
 * replica k from seed hashCombine(@p seed, k).
 */
std::vector<Replica> runRound(const std::string &name, std::uint64_t seed,
                              const RoundOptions &opts);

/**
 * Host seconds of one round's run() calls with contention taken out:
 * for every step of every replica, the fastest of that step over
 * @p rounds, summed. Rounds repeat identical inputs and the simulation
 * is deterministic, so each step does the same work in every round; on
 * a shared host, other tenants can only add time to a step, never take
 * it away.
 */
double fastestRunSeconds(const std::vector<std::vector<Replica>> &rounds);

/** End-to-end figures of a round, pooled over its replicas. */
struct Pooled
{
    std::int64_t generated = 0;
    std::int64_t latencySamples = 0;
    double runSec = 0.0;
    double goodputRps = 0.0;
    double latencyP50Ms = 0.0;
    double latencyP99Ms = 0.0;
    double throughputPerResource = 0.0;
};

Pooled pool(const std::vector<Replica> &round);

/**
 * Percentile @p p of @p h in ms, interpolated by rank inside its bucket.
 * The histogram's own percentile() returns bucket edges 10% apart, which
 * would read the same on every seed.
 */
double percentileMs(const infless::metrics::LatencyHistogram &h, double p);

/** Host cost of single-layer calls on a fleet of a workload's size. */
struct Probes
{
    /** One Resources subtraction. */
    double resourcesSubNs = 0.0;
    /** Cluster::totalAllocated plus Cluster::fragmentRatio. */
    double allocScanUs = 0.0;
    /** Cluster(capacities()), the what-if plan's fleet copy. */
    double fleetCopyMs = 0.0;
    /** One RunMetrics::recordCompletion. */
    double recordCompletionNs = 0.0;
};

/** Time the probes on a cluster of @p servers machines. */
Probes runProbes(std::size_t servers, SpanRecorder *spans);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_HH
