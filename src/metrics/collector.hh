/**
 * @file
 * Per-run metric aggregation.
 *
 * Every quantity the paper's evaluation reports — throughput per occupied
 * resource, SLO violation rate, cold-start rate, latency breakdown,
 * resource-seconds — derives from one RunMetrics filled in by the
 * platform while the simulation runs.
 */

#ifndef INFLESS_METRICS_COLLECTOR_HH
#define INFLESS_METRICS_COLLECTOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "cluster/resources.hh"
#include "metrics/stats.hh"
#include "sim/time.hh"

namespace infless::metrics {

/** Latency decomposition of one completed request (Fig. 15b/c). */
struct LatencyBreakdown
{
    sim::Tick coldStart = 0; ///< instance startup the request waited for
    sim::Tick queue = 0;     ///< time waiting in the batch queue
    sim::Tick exec = 0;      ///< batch execution time
    /** Portion of @ref queue spent blocked behind the instance's running
     *  batch (the batching tax, a refinement — NOT a fourth addend). */
    sim::Tick batchWait = 0;

    sim::Tick total() const { return coldStart + queue + exec; }
};

/**
 * The run counters, one row each: X(id, getter, exported name, help).
 * Storage, recording, getters, merging and telemetry export are all
 * derived from this list, and rows export in list order. A row with an
 * empty name is an internal sum: merged, never exported. Adding a
 * counter is one row here plus its RunMetrics::add() call sites.
 */
#define INFLESS_RUN_COUNTERS(X)                                              \
    X(Arrivals, arrivals, "arrivals_total",                                  \
      "Requests that entered the system")                                    \
    X(Completions, completions, "completions_total", "Requests completed")   \
    X(Drops, drops, "drops_total", "Requests dropped")                       \
    X(SloViolations, sloViolations, "slo_violations_total",                  \
      "Completions that missed their SLO")                                   \
    X(ColdLaunches, coldLaunches, "cold_launches_total",                     \
      "Instance launches paying a cold start")                               \
    X(WarmLaunches, warmLaunches, "warm_launches_total",                     \
      "Instance launches from the pre-warmed pool")                          \
    X(Batches, batches, "batches_total", "Batches executed")                 \
    X(ServerCrashes, serverCrashes, "server_crashes_total",                  \
      "Injected server crashes")                                             \
    X(ServerRecoveries, serverRecoveries, "server_recoveries_total",         \
      "Crashed servers restored")                                            \
    X(StartupFailures, startupFailures, "startup_failures_total",            \
      "Aborted cold-start attempts")                                         \
    X(Retries, retries, "retries_total", "Crash-lost requests re-dispatched") \
    X(Failovers, failovers, "failovers_total",                               \
      "Retried requests that completed")                                     \
    X(LostBatchRequests, lostBatchRequests, "lost_batch_requests_total",     \
      "Requests mid-batch on crash-killed instances")                        \
    X(ExecCacheHits, execCacheHits, "exec_cache_hits_total",                 \
      "Latency-cache pricings served from the memo")                         \
    X(ExecCacheMisses, execCacheMisses, "exec_cache_misses_total",           \
      "Latency-cache pricings computed from the surface")                    \
    X(Sheds, sheds, "sheds_total",                                           \
      "Requests shed by deadline-aware admission control")                   \
    X(BreakerSheds, breakerSheds, "breaker_sheds_total",                     \
      "Requests shed by an open circuit breaker")                            \
    X(QueueEvictions, queueEvictions, "queue_evictions_total",               \
      "Queued requests evicted to seat fresher arrivals")                    \
    X(RetryBudgetExhausted, retryBudgetExhausted,                            \
      "retry_budget_exhausted_total",                                        \
      "Retries denied by an empty retry budget")                             \
    X(BreakerOpens, breakerOpens, "breaker_opens_total",                     \
      "Circuit breaker open transitions")                                    \
    X(BreakerCloses, breakerCloses, "breaker_closes_total",                  \
      "Circuit breaker close transitions")                                   \
    X(BrownoutEntries, brownoutEntries, "brownout_entries_total",            \
      "Functions entering degraded (brownout) mode")                         \
    X(BrownoutExits, brownoutExits, "brownout_exits_total",                  \
      "Functions leaving degraded (brownout) mode")                          \
    X(LimiterSheds, limiterSheds, "limiter_sheds_total",                     \
      "Requests shed by the adaptive concurrency limiter")                   \
    X(LimiterBackoffs, limiterBackoffs, "limiter_backoffs_total",            \
      "Adaptive-limit multiplicative decreases (timeout/drop)")              \
    X(CellMigrations, cellMigrations, "cell_migrations_total",               \
      "Servers migrated between cells at window barriers")                   \
    X(HealthEjections, healthEjections, "health_ejections_total",            \
      "Servers quarantined by the outlier ejector")                          \
    X(HealthReadmissions, healthReadmissions, "health_readmissions_total",   \
      "Quarantined servers re-admitted after probation")                     \
    X(GrayDetections, grayDetections, "gray_detections_total",               \
      "Ejected servers that were ground-truth gray failures")                \
    X(DomainOutages, domainOutages, "domain_outages_total",                  \
      "Correlated failure-domain outages injected")                          \
    X(BatchFillSum, batchFillSum, "", "")                                    \
    X(RestoreTicksSum, restoreTicksSum, "", "")

/** Counter id: one per INFLESS_RUN_COUNTERS row, in row order. */
enum class Counter : std::size_t
{
#define INFLESS_COUNTER_ID(id, getter, name, help) id,
    INFLESS_RUN_COUNTERS(INFLESS_COUNTER_ID)
#undef INFLESS_COUNTER_ID
};

/** Exported name and help text of one counter row. */
struct CounterRow
{
    const char *name; ///< empty for internal sums
    const char *help;
};

/** The counter rows, indexed by Counter. */
inline constexpr CounterRow kCounterRows[] = {
#define INFLESS_COUNTER_ROW(id, getter, name, help) {name, help},
    INFLESS_RUN_COUNTERS(INFLESS_COUNTER_ROW)
#undef INFLESS_COUNTER_ROW
};

inline constexpr std::size_t kNumCounters = std::size(kCounterRows);

/** One value per counter, indexed by Counter. */
struct Counters
{
    std::array<std::int64_t, kNumCounters> values{};

    std::int64_t operator[](Counter c) const
    {
        return values[static_cast<std::size_t>(c)];
    }
    std::int64_t &operator[](Counter c)
    {
        return values[static_cast<std::size_t>(c)];
    }
};

/**
 * Aggregated counters and distributions for one run (or one function).
 */
class RunMetrics
{
  public:
    RunMetrics();

    /** Bump counter @p c by @p n. */
    void add(Counter c, std::int64_t n = 1) { counters_[c] += n; }

    /** A request entered the system. */
    void recordArrival(sim::Tick now);

    /** A request finished; @p slo of 0 disables violation accounting. */
    void recordCompletion(sim::Tick now, const LatencyBreakdown &parts,
                          sim::Tick slo);

    /** A request was dropped (queue overrun). */
    void recordDrop(sim::Tick now);

    /** An instance launch happened; @p cold tells whether it paid a cold
     *  start. */
    void recordLaunch(bool cold);

    /** A batch of @p fill requests started executing. */
    void recordBatch(int fill);

    /** The total allocated resources changed to @p allocated at @p now. */
    void recordAllocation(sim::Tick now, const cluster::Resources &alloc);

    /** The live instance count changed. */
    void recordInstanceCount(sim::Tick now, int count);

    /** A crashed server recovered after @p restore_ticks of downtime. */
    void recordServerRecovery(sim::Tick restore_ticks);

    /** Snapshot the exec-model memo's hit/miss counters (absolute values;
     *  re-recording overwrites, so repeated run() calls stay correct). */
    void recordExecCache(std::uint64_t hits, std::uint64_t misses);

    // Raw counters -------------------------------------------------------

    const Counters &counters() const { return counters_; }

#define INFLESS_COUNTER_GETTER(id, getter, name, help)                       \
    std::int64_t getter() const { return counters_[Counter::id]; }
    INFLESS_RUN_COUNTERS(INFLESS_COUNTER_GETTER)
#undef INFLESS_COUNTER_GETTER

    std::int64_t launches() const { return coldLaunches() + warmLaunches(); }

    /** Fraction of exec-model pricings served from the memo. */
    double execCacheHitRate() const;

    /** Mean crash-to-recovery time (time to restore capacity); 0 when no
     *  recovery has completed. */
    sim::Tick meanRestoreTicks() const;

    const LatencyHistogram &latency() const { return latency_; }
    const LatencyHistogram &queueTime() const { return queueTime_; }
    const LatencyHistogram &execTime() const { return execTime_; }
    const LatencyHistogram &coldTime() const { return coldTime_; }
    const LatencyHistogram &batchTime() const { return batchTime_; }

    /** Mean batch fill (served requests per executed batch). */
    double meanBatchFill() const;

    // Derived quantities --------------------------------------------------

    /** Fraction of completed requests that missed their SLO (drops count
     *  as violations too). */
    double sloViolationRate() const;

    /** Fraction of instance launches that were cold. */
    double coldLaunchRate() const;

    /** Completed requests per second of simulated time. */
    double throughputRps(sim::Tick duration) const;

    /** Allocated CPU integral in core-seconds up to @p now. */
    double cpuCoreSeconds(sim::Tick now) const;

    /** Allocated GPU integral in device-seconds up to @p now. */
    double gpuDeviceSeconds(sim::Tick now) const;

    /** Time-averaged CPU cores allocated. */
    double meanCpuCores(sim::Tick now) const;

    /** Time-averaged GPU devices allocated. */
    double meanGpuDevices(sim::Tick now) const;

    /** Time-averaged live instances. */
    double meanInstances(sim::Tick now) const;

    /** Allocated memory integral in GB-seconds (Fig. 3a's metric). */
    double memoryGbSeconds(sim::Tick now) const;

    /**
     * The paper's normalized throughput: completed RPS divided by the
     * weighted resources occupied (Fig. 12, Fig. 18).
     */
    double throughputPerResource(sim::Tick duration, double beta) const;

    /** Merge counters (every one sums) and histograms of another
     *  collector. */
    void mergeCounters(const RunMetrics &other);

    /**
     * Absorb a sibling cell's shard completely: counters (exec-cache
     * tallies included), histograms and the time-weighted
     * resource/instance signals (summed — cells partition the fleet).
     * Both shards' signals are closed at @p now, the common end of the
     * run.
     */
    void mergeShard(const RunMetrics &other, sim::Tick now);

  private:
    Counters counters_;

    LatencyHistogram latency_;
    LatencyHistogram queueTime_;
    LatencyHistogram execTime_;
    LatencyHistogram coldTime_;
    LatencyHistogram batchTime_;

    TimeWeightedMean cpuCores_;
    TimeWeightedMean gpuDevices_;
    TimeWeightedMean memoryMb_;
    TimeWeightedMean instances_;
};

} // namespace infless::metrics

#endif // INFLESS_METRICS_COLLECTOR_HH
