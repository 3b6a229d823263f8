#include "checks.hh"

#include <sstream>

namespace perfbench {

namespace {

template <typename... Parts>
std::string
describe(const std::string &property, const Parts &...parts)
{
    std::ostringstream os;
    os << property << ": ";
    (os << ... << parts);
    return os.str();
}

} // namespace

std::vector<std::string>
checkOutcome(const Outcome &o)
{
    std::vector<std::string> failed;

    if (o.arrivals != o.generated) {
        failed.push_back(describe("arrivals_match_trace", "platform saw ",
                                  o.arrivals, " arrivals, trace holds ",
                                  o.generated));
    }

    if (o.arrivals != o.completions + o.drops || o.inFlight != 0) {
        failed.push_back(describe("conservation", "arrivals ", o.arrivals,
                                  " != completions ", o.completions,
                                  " + drops ", o.drops, ", or ", o.inFlight,
                                  " still in flight"));
    }

    FunctionOutcome sum;
    for (const auto &f : o.functions) {
        sum.arrivals += f.arrivals;
        sum.completions += f.completions;
        sum.drops += f.drops;
        sum.violations += f.violations;
    }
    if (sum.arrivals != o.arrivals || sum.completions != o.completions ||
        sum.drops != o.drops || sum.violations != o.violations) {
        failed.push_back(describe(
            "per_function_sums", "functions sum to ", sum.arrivals, "/",
            sum.completions, "/", sum.drops, "/", sum.violations,
            " arrivals/completions/drops/violations, fleet totals are ",
            o.arrivals, "/", o.completions, "/", o.drops, "/",
            o.violations));
    }

    for (std::size_t i = 0; i < o.functions.size(); ++i) {
        const auto &f = o.functions[i];
        if (f.completions > 0 && f.minLatency < f.execFloor) {
            failed.push_back(describe(
                "latency_floor", "function ", i, " minimum latency ",
                f.minLatency, " ticks is below its fastest execution ",
                f.execFloor, " ticks"));
        }
    }

    if (o.meanCpuCores > o.capacityCpuCores ||
        o.meanGpus > o.capacityGpus) {
        failed.push_back(describe(
            "allocation_within_capacity", "mean allocation ",
            o.meanCpuCores, " cores / ", o.meanGpus,
            " GPUs exceeds fleet capacity ", o.capacityCpuCores,
            " cores / ", o.capacityGpus, " GPUs"));
    }

    // goodput x window counts in-SLO completions; allow the rounding of
    // one division and one multiplication.
    double in_slo = o.goodputRps * o.windowSec;
    if (!(o.goodputRps >= 0.0) ||
        in_slo > static_cast<double>(o.completions) * (1.0 + 1e-12) ||
        o.completions > o.arrivals) {
        failed.push_back(describe("goodput_bounds", "goodput x window ",
                                  in_slo, " <= completions ", o.completions,
                                  " <= arrivals ", o.arrivals,
                                  " does not hold"));
    }

    for (const auto &q : o.quarantine) {
        if (q.quarantined > q.allowed) {
            failed.push_back(describe(
                "eject_guard", "cell ", q.cell, " at tick ", q.at, " has ",
                q.quarantined, " servers quarantined, guard allows ",
                q.allowed));
            break;
        }
    }
    return failed;
}

std::vector<std::string>
checkSame(const Outcome &a, const Outcome &b, const std::string &property)
{
    if (a == b)
        return {};
    return {describe(property, "modelled outcomes differ (completions ",
                     a.completions, " vs ", b.completions, ", drops ",
                     a.drops, " vs ", b.drops, ", events ", a.events, " vs ",
                     b.events, ", p99 ", a.latencyP99Ms, " vs ",
                     b.latencyP99Ms, " ms)")};
}

} // namespace perfbench
