#include "driver.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.hh"
#include "core/sharded_platform.hh"
#include "metrics/collector.hh"
#include "models/exec_model.hh"
#include "models/model_zoo.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace infless;
using Clock = SpanRecorder::Clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Keeps a probe's result observable so the call cannot be elided. */
volatile double probeSink = 0.0;

double
ticksToMs(sim::Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim::kTicksPerMs);
}

/** Fastest execution of @p model at any batchsize on any grid config. */
sim::Tick
execFloor(const models::ModelInfo &model, const core::PlatformOptions &opts)
{
    models::ExecModel exec(opts.exec);
    sim::Tick best = std::numeric_limits<sim::Tick>::max();
    for (int b = 1; b <= model.maxBatch; ++b) {
        for (std::int64_t cpu : opts.scheduler.cpuChoices) {
            for (std::int64_t gpu : opts.scheduler.gpuChoices) {
                best = std::min(
                    best, exec.trueTicks(model, b,
                                         cluster::Resources{cpu, gpu, 0}));
            }
        }
    }
    return best;
}

void
sampleQuarantine(const core::ShardedPlatform &p, const WorkloadInput &in,
                 sim::Tick at, Outcome &o)
{
    for (std::size_t c = 0; c < p.cellCount(); ++c) {
        const core::Platform &cell = p.cell(c);
        QuarantineSample q;
        q.cell = c;
        q.at = at;
        q.quarantined = cell.quarantinedServers();
        q.allowed = static_cast<std::size_t>(
            std::floor(in.opts.health.maxEjectFraction *
                       static_cast<double>(cell.cluster().liveServers())));
        o.quarantine.push_back(q);
    }
}

void
collect(const core::ShardedPlatform &p, const WorkloadInput &in,
        const std::vector<core::FunctionId> &ids, Replica &r)
{
    Outcome &o = r.outcome;
    const metrics::RunMetrics &total = p.totalMetrics();
    o.arrivals = total.arrivals();
    o.completions = total.completions();
    o.drops = total.drops();
    o.violations = total.sloViolations();
    o.inFlight = p.inFlightRequests();

    const auto &zoo = models::ModelZoo::shared();
    std::map<std::string, sim::Tick> floors;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const metrics::RunMetrics &m = p.functionMetrics(ids[i]);
        FunctionOutcome f;
        f.arrivals = m.arrivals();
        f.completions = m.completions();
        f.drops = m.drops();
        f.violations = m.sloViolations();
        f.minLatency = m.latency().min();
        const std::string &model = in.specs[i].model;
        if (!floors.count(model))
            floors[model] = execFloor(zoo.get(model), in.opts);
        f.execFloor = floors[model];
        o.functions.push_back(f);
    }

    sim::Tick end = p.endTime();
    cluster::Resources capacity;
    for (std::size_t c = 0; c < p.cellCount(); ++c)
        capacity += p.cell(c).cluster().totalCapacity();
    o.capacityCpuCores = capacity.cpuCores();
    o.capacityGpus = capacity.gpuDevices();
    o.meanCpuCores = total.meanCpuCores(end);
    o.meanGpus = total.meanGpuDevices(end);

    o.goodputRps = static_cast<double>(o.completions - o.violations) /
                   o.windowSec;
    o.latencyP50Ms = percentileMs(total.latency(), 50.0);
    o.latencyP99Ms = percentileMs(total.latency(), 99.0);
    o.throughputPerResource =
        total.throughputPerResource(end, in.opts.scheduler.beta);
    r.latency = total.latency();
    r.queueWait = total.queueTime();
    r.batches = total.batches();
    r.resourceSec = in.opts.scheduler.beta * total.cpuCoreSeconds(end) +
                    total.gpuDeviceSeconds(end);

    for (std::size_t c = 0; c < p.cellCount(); ++c) {
        const core::Platform &cell = p.cell(c);
        const sim::EventQueue &events = cell.simulation().events();
        o.events += events.executed();
        o.eventCancellations += events.cancellations();
        o.eventCompactions += events.compactions();
        o.cellEvents.push_back(events.executed());
        o.execCacheHits += cell.execCache().stats().hits;
        o.execCacheMisses += cell.execCache().stats().misses;
        for (std::size_t ph = 0; ph < obs::kPhaseCount; ++ph) {
            obs::PhaseStats st =
                cell.overheads().stats(static_cast<obs::Phase>(ph));
            r.phases[ph].count += st.count;
            r.phases[ph].totalUs += st.totalUs;
        }
    }
    o.scheduleCalls = p.schedulerDecisions();
    o.launches = total.launches();
    o.coldLaunches = total.coldLaunches();
    o.batchFillMean = total.meanBatchFill();
    o.queueWaitP50Ms = percentileMs(total.queueTime(), 50.0);
    o.sheds = total.sheds();
    o.limiterSheds = total.limiterSheds();
    o.crashes = total.serverCrashes();
    o.retries = total.retries();
    o.lostBatchRequests = total.lostBatchRequests();
    o.ejections = total.healthEjections();
    o.readmissions = total.healthReadmissions();
}

/**
 * Median host seconds of one call of @p fn: repeat until @p budget
 * seconds have passed (at least three times).
 */
template <typename Fn>
double
medianSeconds(Fn &&fn, double budget)
{
    std::vector<double> samples;
    auto start = Clock::now();
    while (samples.size() < 3 || secondsSince(start) < budget) {
        auto t = Clock::now();
        fn();
        samples.push_back(secondsSince(t));
    }
    std::nth_element(samples.begin(),
                     samples.begin() + samples.size() / 2, samples.end());
    return samples[samples.size() / 2];
}

} // namespace

double
percentileMs(const metrics::LatencyHistogram &h, double p)
{
    if (h.count() == 0)
        return 0.0;
    double rank = p / 100.0 * static_cast<double>(h.count());
    double seen = 0.0;
    for (std::size_t b = 0; b < h.bucketCount(); ++b) {
        auto n = static_cast<double>(h.bucketSamples(b));
        if (n > 0.0 && seen + n >= rank) {
            double lo = b == 0 ? 0.0
                               : static_cast<double>(h.bucketUpperBound(b - 1));
            double hi = static_cast<double>(h.bucketUpperBound(b));
            double v = lo + (hi - lo) * (rank - seen) / n;
            v = std::clamp(v, static_cast<double>(h.min()),
                           static_cast<double>(h.max()));
            return v / static_cast<double>(sim::kTicksPerMs);
        }
        seen += n;
    }
    return ticksToMs(h.max());
}

Replica
runReplica(const std::string &name, std::uint64_t seed,
           const RoundOptions &opts)
{
    SpanRecorder *spans = opts.spans;
    ScopedSpan replica_span(spans, "bench.replica");
    Replica r;
    auto setup_start = Clock::now();

    WorkloadInput in;
    {
        ScopedSpan s(spans, "workload.trace_gen");
        in = makeInput(name, seed);
    }
    if (opts.threads != 0)
        in.cellOpts.threads = opts.threads;
    in.opts.obs.profiling = opts.profiling;
    r.outcome.generated = in.generated();
    r.outcome.windowSec = sim::ticksToSec(in.window);
    r.threads = std::max<std::size_t>(1, std::min(in.cellOpts.cells,
                                                  in.cellOpts.threads));
    r.cellServers = in.servers / in.cellOpts.cells;

    std::unique_ptr<core::ShardedPlatform> p;
    {
        ScopedSpan s(spans, "core.construct");
        p = std::make_unique<core::ShardedPlatform>(in.servers, in.opts,
                                                    in.cellOpts);
    }
    std::vector<core::FunctionId> ids;
    {
        ScopedSpan s(spans, "core.deploy");
        for (const auto &spec : in.specs)
            ids.push_back(p->deploy(spec));
    }
    {
        ScopedSpan s(spans, "core.inject_trace");
        for (std::size_t i = 0; i < ids.size(); ++i)
            p->injectTrace(ids[i], std::move(in.traces[i]));
    }
    r.setupDone = Clock::now();
    r.setupSec =
        std::chrono::duration<double>(r.setupDone - setup_start).count();

    for (sim::Tick t = std::min(in.step, in.horizon);;
         t = std::min(t + in.step, in.horizon)) {
        auto run_start = Clock::now();
        {
            ScopedSpan s(spans, "core.run");
            p->run(t);
        }
        r.stepSec.push_back(secondsSince(run_start));
        r.runSec += r.stepSec.back();
        sampleQuarantine(*p, in, t, r.outcome);
        if (t == in.horizon)
            break;
    }

    ScopedSpan s(spans, "bench.collect");
    collect(*p, in, ids, r);
    return r;
}

std::vector<Replica>
runRound(const std::string &name, std::uint64_t seed,
         const RoundOptions &opts)
{
    std::vector<Replica> round;
    for (std::size_t k = 0; k < replicasPerRound(name); ++k)
        round.push_back(runReplica(name, sim::hashCombine(seed, k), opts));
    return round;
}

double
fastestRunSeconds(const std::vector<std::vector<Replica>> &rounds)
{
    const std::vector<Replica> &first = rounds.front();
    double total = 0.0;
    for (std::size_t k = 0; k < first.size(); ++k) {
        for (std::size_t j = 0; j < first[k].stepSec.size(); ++j) {
            double best = first[k].stepSec[j];
            for (const auto &round : rounds)
                best = std::min(best, round.at(k).stepSec.at(j));
            total += best;
        }
    }
    return total;
}

Pooled
pool(const std::vector<Replica> &round)
{
    Pooled p;
    metrics::LatencyHistogram latency;
    std::int64_t in_slo = 0;
    std::int64_t completions = 0;
    double resource_sec = 0.0;
    double window_sec = 0.0;
    for (const Replica &r : round) {
        const Outcome &o = r.outcome;
        p.generated += o.generated;
        p.runSec += r.runSec;
        latency.merge(r.latency);
        in_slo += o.completions - o.violations;
        completions += o.completions;
        resource_sec += r.resourceSec;
        window_sec += o.windowSec;
    }
    p.latencySamples = latency.count();
    p.goodputRps = static_cast<double>(in_slo) / window_sec;
    p.latencyP50Ms = percentileMs(latency, 50.0);
    p.latencyP99Ms = percentileMs(latency, 99.0);
    p.throughputPerResource =
        resource_sec > 0.0 ? static_cast<double>(completions) / resource_sec
                           : 0.0;
    return p;
}

Probes
runProbes(std::size_t servers, SpanRecorder *spans)
{
    constexpr double kBudget = 0.05;
    Probes pr;
    {
        ScopedSpan s(spans, "probe.resources_sub");
        constexpr int kOps = 200000;
        const cluster::Resources one{1, 1, 1};
        double sec = medianSeconds(
            [&] {
                cluster::Resources acc{kOps, kOps, kOps};
                for (int i = 0; i < kOps; ++i)
                    acc -= one;
                probeSink = static_cast<double>(acc.cpuMillicores);
            },
            kBudget);
        pr.resourcesSubNs = sec * 1e9 / kOps;
    }

    // A fleet a third occupied, as a steady workload leaves it.
    cluster::Cluster fleet(servers);
    for (std::size_t id = 0; id < servers; id += 3) {
        fleet.allocate(static_cast<cluster::ServerId>(id),
                       cluster::Resources{1000, 10, 1024});
    }
    {
        ScopedSpan s(spans, "probe.alloc_scan");
        pr.allocScanUs = 1e6 * medianSeconds(
                                   [&] {
                                       probeSink =
                                           fleet.totalAllocated().cpuCores() +
                                           fleet.fragmentRatio();
                                   },
                                   kBudget);
    }
    {
        ScopedSpan s(spans, "probe.fleet_copy");
        pr.fleetCopyMs = 1e3 * medianSeconds(
                                   [&] {
                                       cluster::Cluster copy(
                                           fleet.capacities());
                                       probeSink = static_cast<double>(
                                           copy.size());
                                   },
                                   kBudget);
    }
    {
        ScopedSpan s(spans, "probe.record_completion");
        constexpr int kOps = 200000;
        double sec = medianSeconds(
            [&] {
                metrics::RunMetrics m;
                metrics::LatencyBreakdown parts;
                for (int i = 0; i < kOps; ++i) {
                    parts.queue = i % 5000;
                    parts.exec = 1000 + i % 20000;
                    m.recordCompletion(i, parts, 200 * sim::kTicksPerMs);
                }
                probeSink = static_cast<double>(m.sloViolations());
            },
            kBudget);
        pr.recordCompletionNs = sec * 1e9 / kOps;
    }
    return pr;
}

} // namespace perfbench
