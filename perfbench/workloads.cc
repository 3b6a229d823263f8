#include "workloads.hh"

#include <algorithm>
#include <thread>

#include "models/model_zoo.hh"
#include "sim/rng.hh"
#include "workload/azure_synth.hh"
#include "workload/generators.hh"

namespace perfbench {

namespace {

using namespace infless;

constexpr sim::Tick kSec = sim::kTicksPerSec;

/** Stream keys: traces and the platform's own randomness never share a
 *  stream, so changing one workload knob leaves the others' draws. */
constexpr std::uint64_t kTraceStream = 0x7472616365ULL;
constexpr std::uint64_t kPlatformStream = 0x706c6174ULL;

std::size_t
hardwareThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/** Keep only arrivals inside [0, window). */
workload::ArrivalTrace
clip(const workload::ArrivalTrace &trace, sim::Tick window)
{
    std::vector<sim::Tick> kept;
    kept.reserve(trace.size());
    for (sim::Tick t : trace.arrivals()) {
        if (t >= 0 && t < window)
            kept.push_back(t);
    }
    return workload::ArrivalTrace(std::move(kept));
}

core::FunctionSpec
specFor(std::size_t f)
{
    const auto &zoo = models::ModelZoo::shared().all();
    core::FunctionSpec spec;
    spec.model = zoo[f % zoo.size()].name;
    spec.name = spec.model + "-" + std::to_string(f);
    spec.sloTicks = 200 * sim::kTicksPerMs;
    return spec;
}

/** Steady Poisson traffic, @p rps per function, over the model zoo. */
void
addPoissonFunctions(WorkloadInput &in, std::size_t functions, double rps,
                    std::uint64_t seed)
{
    for (std::size_t f = 0; f < functions; ++f) {
        sim::Rng rng(sim::hashCombine(sim::hashCombine(seed, kTraceStream),
                                      f));
        in.specs.push_back(specFor(f));
        in.traces.push_back(
            workload::poissonArrivals(rps, in.window, rng));
    }
}

/**
 * Ten thousand homogeneous servers, traffic well below capacity: fleet
 * size never constrains the result, so any host cost that grows with the
 * fleet is waste.
 */
WorkloadInput
flatLargeFleet(std::uint64_t seed)
{
    WorkloadInput in;
    // Every launch and reap rescans the whole fleet, so host time follows
    // the launch count, most of it the cold-start ramp. 10k servers and a
    // 30 s window keep a replica to a few host seconds, so a run repeats
    // every step several times; the ramp's cold starts set p99. Short
    // steps let each be timed between other tenants' bursts.
    in.servers = 10000;
    in.window = 30 * kSec;
    in.horizon = in.window + 5 * kSec;
    in.step = kSec / 10;
    addPoissonFunctions(in, 16, 30.0, seed);
    return in;
}

/**
 * Tens of servers near their knee under the paper's periodic and bursty
 * traces, compressed 60x (one trace minute per simulated second), so
 * batching, scaling and cold starts decide the modelled outcome.
 */
WorkloadInput
burstySmallFleet(std::uint64_t seed)
{
    constexpr std::size_t kFunctions = 32;
    constexpr sim::Tick kCompressedMinute = kSec;
    WorkloadInput in;
    in.servers = 10;
    for (std::size_t f = 0; f < kFunctions; ++f) {
        workload::AzureSynthParams p;
        p.pattern = f % 2 == 0 ? workload::TracePattern::Periodic
                               : workload::TracePattern::Bursty;
        p.meanRps = 62.5;
        p.days = 0.125;
        p.seed = sim::hashCombine(sim::hashCombine(seed, kTraceStream), f);
        workload::RateSeries series = workload::synthesizeTrace(p);
        series.binWidth = kCompressedMinute;
        in.window = std::max(in.window, series.duration());
        sim::Rng rng(p.seed);
        in.specs.push_back(specFor(f));
        in.traces.push_back(
            workload::ArrivalTrace::fromRateSeries(series, rng));
    }
    in.horizon = in.window + 10 * kSec;
    in.step = kSec;
    return in;
}

/**
 * Every subsystem at once on a mid-size sharded fleet: topology with
 * spread, i.i.d. crashes, a scripted zone outage, gray servers, health
 * ejection, adaptive admission over the full overload stack and the SLO
 * monitor.
 */
WorkloadInput
shardedChaos(std::uint64_t seed)
{
    WorkloadInput in;
    in.servers = 2000;
    in.window = 60 * kSec;
    in.horizon = in.window + 20 * kSec;
    in.cellOpts.cells = 4;
    // Two workers leave the host's other cores to the benchmark's own
    // thread and the machine, so a barrier rarely waits on a worker that
    // lost its core.
    in.cellOpts.threads = std::min<std::size_t>(2, hardwareThreads());
    in.step = 4 * in.cellOpts.windowTicks;

    auto &o = in.opts;
    o.topology.zones = 4;
    o.topology.racksPerZone = 10;
    o.topology.rackSize = 50;
    o.scheduler.spreadWeight = 0.5;
    o.faults.serverMtbfSec = 3000.0;
    o.faults.serverMttrSec = 20.0;
    o.faults.crashHorizon = in.window;
    o.faults.domainOutageAt = 20 * kSec;
    o.faults.domainOutageTarget = 0;
    o.faults.domainOutageMttrSec = 15.0;
    o.faults.grayFraction = 0.05;
    o.faults.grayFactor = 3.0;
    o.health.enabled = true;
    o.overload = overload::OverloadConfig::fullStack();
    o.overload.mode = overload::AdmissionMode::Adaptive;
    o.obs.slo.enabled = true;

    addPoissonFunctions(in, 32, 20.0, seed);
    return in;
}

} // namespace

std::int64_t
WorkloadInput::generated() const
{
    std::int64_t n = 0;
    for (const auto &t : traces)
        n += static_cast<std::int64_t>(t.size());
    return n;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "flat_large_fleet", "bursty_small_fleet", "sharded_chaos"};
    return names;
}

std::size_t
replicasPerRound(const std::string &name)
{
    return name == "flat_large_fleet" ? 2 : 6;
}

bool
knownWorkload(const std::string &name)
{
    const auto &names = workloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

WorkloadInput
makeInput(const std::string &name, std::uint64_t seed)
{
    WorkloadInput in;
    if (name == "flat_large_fleet")
        in = flatLargeFleet(seed);
    else if (name == "bursty_small_fleet")
        in = burstySmallFleet(seed);
    else if (name == "sharded_chaos")
        in = shardedChaos(seed);
    else
        sim::fatal("unknown workload: ", name);
    in.name = name;
    in.opts.seed = sim::hashCombine(seed, kPlatformStream);
    for (auto &trace : in.traces)
        trace = clip(trace, in.window);
    return in;
}

} // namespace perfbench
