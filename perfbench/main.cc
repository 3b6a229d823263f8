/**
 * @file
 * perfbench: one command for the simulator's host speed and modelled
 * SLO outcome.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--commit <id>] [--src-digest <hex>] [--out <dir>]
 *
 * --trace 0 repeats whole rounds (fresh inputs from the seed, fresh
 * platform, one full run) until --seconds have passed and reports the
 * end-to-end metrics. --trace 1 repeats pairs of an untraced and a
 * traced round (program profiling on, benchmark spans recorded), then
 * times the single-layer probes, writes the spans to
 * <out>/spans-<workload>-<seed>.json and reports the per-layer metrics.
 * Every round is checked against the method's properties. The last line
 * of stdout is the result as one JSON object.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "driver.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;
using Clock = SpanRecorder::Clock;
namespace metrics = infless::metrics;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string commit = "unknown";
    std::string srcDigest = "unknown";
    std::string out = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--commit <id>] "
                 "[--src-digest <hex>] [--out <dir>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0))
                usage("--seconds must be a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--commit") {
            a.commit = value;
        } else if (flag == "--src-digest") {
            a.srcDigest = value;
        } else if (flag == "--out") {
            a.out = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!knownWorkload(a.workload))
        usage("unknown workload '" + a.workload + "'");
    if (!have_seed)
        usage("--seed must be a non-negative integer");
    if (a.seconds <= 0.0 || a.trace < 0)
        usage("--seconds and --trace are required");
    return a;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Tallies and check failures over every round of the invocation. */
struct Ledger
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> failures;

    void
    add(const std::vector<Replica> &round)
    {
        for (const Replica &r : round) {
            attempted += r.outcome.generated;
            failed += std::max<std::int64_t>(0, r.outcome.unaccounted());
            note(checkOutcome(r.outcome));
        }
    }

    /** Require two rounds of the same inputs to model the same outcome. */
    void
    same(const std::vector<Replica> &a, const std::vector<Replica> &b,
         const std::string &property)
    {
        for (std::size_t k = 0; k < a.size() && k < b.size(); ++k)
            note(checkSame(a[k].outcome, b[k].outcome, property));
    }

    void
    note(const std::vector<std::string> &f)
    {
        failures.insert(failures.end(), f.begin(), f.end());
    }
};

void
printInfo(const Args &a, const std::vector<Replica> &first,
          std::size_t rounds)
{
    unsigned hw = std::thread::hardware_concurrency();
    Pooled p = pool(first);
    std::int64_t drops = 0;
    std::int64_t violations = 0;
    for (const Replica &r : first) {
        drops += r.outcome.drops;
        violations += r.outcome.violations;
    }
    const Outcome &o = first.front().outcome;
    std::printf("info {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"rounds\": %zu, \"replicas_per_round\": %zu, "
                "\"git_commit\": \"%s\", \"src_digest\": \"%s\", "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"hardware_threads\": %u, \"worker_threads\": %zu, "
                "\"requests_per_round\": %lld, \"latency_samples\": %lld, "
                "\"drops\": %lld, \"slo_violations\": %lld, "
                "\"mean_gpus\": %.2f, \"capacity_gpus\": %.0f, "
                "\"mean_cpu_cores\": %.2f, \"capacity_cpu_cores\": %.0f}\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.trace, rounds, first.size(), a.commit.c_str(),
                a.srcDigest.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                hw, first.front().threads,
                static_cast<long long>(p.generated),
                static_cast<long long>(p.latencySamples),
                static_cast<long long>(drops),
                static_cast<long long>(violations), o.meanGpus,
                o.capacityGpus, o.meanCpuCores, o.capacityCpuCores);
}

/** Print the metrics, any failed checks and the result line. */
void
report(const std::vector<Metric> &metrics, const Ledger &ledger)
{
    bool finite = true;
    for (const auto &m : metrics) {
        std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        finite = finite && std::isfinite(m.value);
    }
    for (const auto &f : ledger.failures)
        std::printf("FAILED %s\n", f.c_str());
    if (!finite)
        std::printf("FAILED finite_metrics: a metric is not a number\n");

    bool correct = finite && ledger.failures.empty();
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(ledger.attempted);
    json += ", \"failed\": " + std::to_string(ledger.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Host seconds inside run() of each round. */
std::vector<double>
roundSeconds(const std::vector<std::vector<Replica>> &rounds)
{
    std::vector<double> v;
    for (const auto &round : rounds)
        v.push_back(pool(round).runSec);
    return v;
}

void
endToEnd(const Args &a, Clock::time_point process_start)
{
    Ledger ledger;
    std::vector<std::vector<Replica>> rounds;
    do {
        rounds.push_back(runRound(a.workload, a.seed, {}));
        ledger.add(rounds.back());
        if (rounds.size() > 1)
            ledger.same(rounds.front(), rounds.back(), "repeat_determinism");
    } while (secondsSince(process_start) < a.seconds);

    const std::vector<Replica> &first = rounds.front();
    Pooled p = pool(first);
    double run_s = fastestRunSeconds(rounds);
    double setup_s = std::chrono::duration<double>(
                         first.front().setupDone - process_start)
                         .count();
    printInfo(a, first, rounds.size());
    std::printf("run_s {\"fastest\": %.6f, \"median_round\": %.6f}\n", run_s,
                median(roundSeconds(rounds)));
    report({{"sim_requests_per_s", static_cast<double>(p.generated) / run_s,
             "req/s"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"goodput_rps", p.goodputRps, "req/s"},
            {"latency_p50_ms", p.latencyP50Ms, "ms"},
            {"latency_p99_ms", p.latencyP99Ms, "ms"},
            {"throughput_per_resource", p.throughputPerResource,
             "req/res-s"}},
           ledger);
}

/** A round's deterministic work counts, summed over its replicas. */
Outcome
sumCounts(const std::vector<Replica> &round)
{
    Outcome t;
    for (const Replica &r : round) {
        const Outcome &o = r.outcome;
        t.events += o.events;
        t.eventCancellations += o.eventCancellations;
        t.eventCompactions += o.eventCompactions;
        t.cellEvents.resize(o.cellEvents.size());
        for (std::size_t c = 0; c < o.cellEvents.size(); ++c)
            t.cellEvents[c] += o.cellEvents[c];
        t.scheduleCalls += o.scheduleCalls;
        t.launches += o.launches;
        t.coldLaunches += o.coldLaunches;
        t.execCacheHits += o.execCacheHits;
        t.execCacheMisses += o.execCacheMisses;
        t.sheds += o.sheds;
        t.limiterSheds += o.limiterSheds;
        t.crashes += o.crashes;
        t.retries += o.retries;
        t.lostBatchRequests += o.lostBatchRequests;
        t.ejections += o.ejections;
        t.readmissions += o.readmissions;
    }
    return t;
}

double
runSeconds(const std::vector<Replica> &round)
{
    return pool(round).runSec;
}

/** A controller phase's profiler totals over a round. */
PhaseTotals
phaseTotals(const std::vector<Replica> &round, infless::obs::Phase ph)
{
    PhaseTotals t;
    for (const Replica &r : round) {
        t.count += r.phases[static_cast<std::size_t>(ph)].count;
        t.totalUs += r.phases[static_cast<std::size_t>(ph)].totalUs;
    }
    return t;
}

void
perLayer(const Args &a, Clock::time_point process_start)
{
    Ledger ledger;
    SpanRecorder spans;
    std::vector<std::vector<Replica>> plain;
    std::vector<std::vector<Replica>> traced;
    double speedup = 1.0;
    do {
        plain.push_back(runRound(a.workload, a.seed, {}));
        RoundOptions t;
        t.profiling = true;
        t.spans = &spans;
        traced.push_back(runRound(a.workload, a.seed, t));
        const std::vector<Replica> &r = traced.back();
        ledger.add(plain.back());
        ledger.add(r);
        ledger.same(plain.back(), r, "traced_equals_untraced");
        if (traced.size() == 1 && r.front().threads > 1) {
            RoundOptions one = t;
            one.threads = 1;
            one.spans = nullptr;
            std::vector<Replica> serial = runRound(a.workload, a.seed, one);
            ledger.add(serial);
            ledger.same(serial, r, "thread_count_identity");
            speedup = runSeconds(serial) / runSeconds(r);
        }
    } while (secondsSince(process_start) < a.seconds);

    const std::vector<Replica> &first = traced.front();
    const Outcome o = sumCounts(first);
    Probes probes = runProbes(first.front().cellServers, &spans);

    std::string path =
        a.out + "/spans-" + a.workload + "-" + std::to_string(a.seed) +
        ".json";
    if (!spans.write(path))
        ledger.failures.push_back("span_file: cannot write " + path);

    auto medianOf = [&](auto field) {
        std::vector<double> v;
        for (const auto &r : traced)
            v.push_back(field(r));
        return median(v);
    };
    using infless::obs::Phase;
    auto phaseMean = [&](Phase ph) {
        return medianOf([ph](const std::vector<Replica> &r) {
            return phaseTotals(r, ph).meanUs();
        });
    };
    double max_cell = 0.0;
    double sum_cell = 0.0;
    for (std::uint64_t e : o.cellEvents) {
        max_cell = std::max(max_cell, static_cast<double>(e));
        sum_cell += static_cast<double>(e);
    }
    double lookups =
        static_cast<double>(o.execCacheHits + o.execCacheMisses);
    metrics::LatencyHistogram queue_wait;
    double batches = 0.0;
    double batch_fill = 0.0;
    for (const Replica &r : first) {
        queue_wait.merge(r.queueWait);
        batches += static_cast<double>(r.batches);
        batch_fill += r.outcome.batchFillMean * static_cast<double>(r.batches);
    }
    std::vector<Metric> m = {
        {"sim.events", static_cast<double>(o.events), "count"},
        {"sim.host_ns_per_event",
         1e9 * fastestRunSeconds(traced) / static_cast<double>(o.events),
         "ns"},
        {"sim.event_cancellations", static_cast<double>(o.eventCancellations),
         "count"},
        {"sim.event_compactions", static_cast<double>(o.eventCompactions),
         "count"},
        {"cluster.resources_sub_ns", probes.resourcesSubNs, "ns"},
        {"cluster.alloc_scan_us", probes.allocScanUs, "us"},
        {"cluster.fleet_copy_ms", probes.fleetCopyMs, "ms"},
        {"core.schedule_calls", static_cast<double>(o.scheduleCalls),
         "count"},
        {"core.schedule_us_mean", phaseMean(Phase::Schedule), "us"},
        {"core.autoscaler_tick_us", phaseMean(Phase::Autoscaler), "us"},
        {"core.launches", static_cast<double>(o.launches), "count"},
        {"core.cold_launches", static_cast<double>(o.coldLaunches), "count"},
        {"core.batch_fill_mean", batches > 0.0 ? batch_fill / batches : 0.0,
         "req"},
        {"core.queue_wait_p50_ms", percentileMs(queue_wait, 50.0), "ms"},
        {"core.cell_event_imbalance",
         sum_cell > 0.0
             ? max_cell / (sum_cell / static_cast<double>(o.cellEvents.size()))
             : 1.0,
         "ratio"},
        {"core.sharded_thread_speedup", speedup, "x"},
        {"profiler.cop_solves",
         static_cast<double>(phaseTotals(first, Phase::CopSolve).count),
         "count"},
        {"profiler.cop_solve_us", phaseMean(Phase::CopSolve), "us"},
        {"models.exec_cache_hits", static_cast<double>(o.execCacheHits),
         "count"},
        {"models.exec_cache_misses", static_cast<double>(o.execCacheMisses),
         "count"},
        {"models.exec_cache_lookups", lookups, "count"},
        {"models.exec_cache_hit_ratio",
         lookups > 0.0 ? static_cast<double>(o.execCacheHits) / lookups : 0.0,
         "ratio"},
        {"coldstart.keepalive_decide_us", phaseMean(Phase::ColdStartPolicy),
         "us"},
        {"metrics.record_completion_ns", probes.recordCompletionNs, "ns"},
        {"overload.sheds", static_cast<double>(o.sheds), "count"},
        {"overload.limiter_sheds", static_cast<double>(o.limiterSheds),
         "count"},
        {"faults.crashes", static_cast<double>(o.crashes), "count"},
        {"faults.retries", static_cast<double>(o.retries), "count"},
        {"faults.lost_batch_requests",
         static_cast<double>(o.lostBatchRequests), "count"},
        {"health.ejections", static_cast<double>(o.ejections), "count"},
        {"health.readmissions", static_cast<double>(o.readmissions),
         "count"},
        {"obs.trace_overhead_s",
         fastestRunSeconds(traced) - fastestRunSeconds(plain), "s"},
    };
    // Self time of every span, per traced round (the probes ran once).
    auto self = spans.selfSeconds();
    const double n = static_cast<double>(traced.size());
    for (const char *name :
         {"workload.trace_gen", "core.construct", "core.deploy",
          "core.inject_trace", "core.run", "bench.collect",
          "bench.replica"}) {
        m.push_back({std::string(name) + "_s", self[name] / n, "s"});
    }
    for (const char *name : {"probe.resources_sub", "probe.alloc_scan",
                             "probe.fleet_copy", "probe.record_completion"}) {
        m.push_back({std::string(name) + "_s", self[name], "s"});
    }
    printInfo(a, first, traced.size());
    std::printf("spans %s\n", path.c_str());
    report(m, ledger);
}

} // namespace

int
main(int argc, char **argv)
{
    auto process_start = Clock::now();
    Args a = parseArgs(argc, argv);
    try {
        if (a.trace == 0)
            endToEnd(a, process_start);
        else
            perLayer(a, process_start);
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::cerr << "perfbench: the program failed: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
