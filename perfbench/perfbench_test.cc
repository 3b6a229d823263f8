/**
 * @file
 * Tests of the benchmark itself: every property check rejects a result
 * corrupted to break it, and sharded_chaos models the same outcome on
 * one worker thread as on its full thread count.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "checks.hh"
#include "driver.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

class PerfbenchTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        full_ = runReplica("sharded_chaos", 7, {});
    }

    /** A real, correct result to corrupt. */
    static const Outcome &good() { return full_->outcome; }

    static std::optional<Replica> full_;
};

std::optional<Replica> PerfbenchTest::full_;

/** True when @p failures name @p property. */
bool
rejects(const std::vector<std::string> &failures, const std::string &property)
{
    for (const auto &f : failures) {
        if (f.rfind(property + ":", 0) == 0)
            return true;
    }
    return false;
}

TEST_F(PerfbenchTest, RealRoundPassesEveryCheck)
{
    EXPECT_TRUE(checkOutcome(good()).empty());
    EXPECT_GT(good().generated, 0);
    EXPECT_GT(good().crashes, 0);
    EXPECT_GT(good().ejections, 0);
    EXPECT_GT(full_->threads, 0u);
}

TEST_F(PerfbenchTest, ShardedChaosIsIdenticalOnOneThread)
{
    RoundOptions one;
    one.threads = 1;
    Replica serial = runReplica("sharded_chaos", 7, one);
    EXPECT_EQ(serial.threads, 1u);
    EXPECT_TRUE(checkSame(serial.outcome, good(), "threads").empty());
}

TEST_F(PerfbenchTest, ProfilingDoesNotPerturbTheRun)
{
    RoundOptions traced;
    traced.profiling = true;
    Replica r = runReplica("sharded_chaos", 7, traced);
    EXPECT_TRUE(checkSame(r.outcome, good(), "traced").empty());
}

TEST_F(PerfbenchTest, RejectsArrivalsThatDoNotMatchTheTrace)
{
    Outcome o = good();
    o.generated += 1;
    EXPECT_TRUE(rejects(checkOutcome(o), "arrivals_match_trace"));
}

TEST_F(PerfbenchTest, RejectsLostRequests)
{
    Outcome o = good();
    o.drops -= 1;
    EXPECT_TRUE(rejects(checkOutcome(o), "conservation"));
    o = good();
    o.inFlight = 1;
    EXPECT_TRUE(rejects(checkOutcome(o), "conservation"));
}

TEST_F(PerfbenchTest, RejectsPerFunctionSumsThatMissTheTotal)
{
    Outcome o = good();
    o.functions[3].violations += 1;
    EXPECT_TRUE(rejects(checkOutcome(o), "per_function_sums"));
}

TEST_F(PerfbenchTest, RejectsLatencyBelowTheFastestExecution)
{
    Outcome o = good();
    o.functions[0].minLatency = o.functions[0].execFloor - 1;
    EXPECT_TRUE(rejects(checkOutcome(o), "latency_floor"));
}

TEST_F(PerfbenchTest, RejectsAllocationBeyondCapacity)
{
    Outcome o = good();
    o.meanGpus = o.capacityGpus * 1.01;
    EXPECT_TRUE(rejects(checkOutcome(o), "allocation_within_capacity"));
}

TEST_F(PerfbenchTest, RejectsGoodputAboveCompletions)
{
    Outcome o = good();
    o.goodputRps = static_cast<double>(o.completions + 1) / o.windowSec;
    EXPECT_TRUE(rejects(checkOutcome(o), "goodput_bounds"));
}

TEST_F(PerfbenchTest, RejectsQuarantineBeyondTheEjectGuard)
{
    Outcome o = good();
    ASSERT_FALSE(o.quarantine.empty());
    o.quarantine.back().quarantined = o.quarantine.back().allowed + 1;
    EXPECT_TRUE(rejects(checkOutcome(o), "eject_guard"));
}

TEST_F(PerfbenchTest, RejectsDifferingOutcomes)
{
    Outcome o = good();
    o.latencyP99Ms += 0.001;
    EXPECT_TRUE(rejects(checkSame(good(), o, "traced_equals_untraced"),
                        "traced_equals_untraced"));
}

TEST(PerfbenchWorkloads, InputsRepeatForOneSeedAndDifferAcrossSeeds)
{
    for (const auto &name : workloadNames()) {
        WorkloadInput a = makeInput(name, 3);
        WorkloadInput b = makeInput(name, 3);
        WorkloadInput c = makeInput(name, 4);
        ASSERT_EQ(a.traces.size(), b.traces.size()) << name;
        for (std::size_t i = 0; i < a.traces.size(); ++i) {
            EXPECT_EQ(a.traces[i].arrivals(), b.traces[i].arrivals()) << name;
            for (auto t : a.traces[i].arrivals())
                ASSERT_TRUE(t >= 0 && t < a.window) << name;
        }
        EXPECT_NE(a.traces[0].arrivals(), c.traces[0].arrivals()) << name;
    }
}

} // namespace
} // namespace perfbench
