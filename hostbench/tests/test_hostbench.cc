/**
 * @file
 * The benchmark's own tests: the percentile a sample supports,
 * nested-span self time, open-loop lateness accounting, and that a
 * wrong expected digest is reported as failures.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "check.hh"
#include "spans.hh"
#include "stats.hh"

using namespace hostbench;

TEST(Percentile, InterpolatesBetweenOrderedSamples)
{
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(percentile({5.0}, 0.99), 5.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, SupportedNeedsTenSamplesBeyond)
{
    EXPECT_DOUBLE_EQ(supportedPercentile(19), 0.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(20), 0.5);
    EXPECT_DOUBLE_EQ(supportedPercentile(99), 0.5);
    EXPECT_DOUBLE_EQ(supportedPercentile(100), 0.9);
    EXPECT_DOUBLE_EQ(supportedPercentile(999), 0.9);
    EXPECT_DOUBLE_EQ(supportedPercentile(1000), 0.99);
    EXPECT_DOUBLE_EQ(supportedPercentile(10000), 0.999);
}

TEST(Spans, NestedSelfTimeExcludesChildrenAndCharges)
{
    SpanRecorder rec;
    const auto spin = [&rec](double secs) {
        const double until = rec.now() + secs;
        while (rec.now() < until) {
        }
    };
    const int root = rec.begin("root");
    spin(0.002);
    {
        ScopedSpan child(&rec, "child");
        spin(0.003);
        {
            ScopedSpan leaf(&rec, "leaf");
            spin(0.002);
        }
        rec.charge("work", 0.001);
    }
    {
        ScopedSpan other(&rec, "child");
        spin(0.001);
    }
    rec.end(root);

    const auto self = rec.selfTimes(root);
    const double leaf = rec.total("leaf");
    const double child = rec.total("child");
    EXPECT_EQ(rec.count("child"), 2u);
    EXPECT_DOUBLE_EQ(self.at("leaf"), leaf);
    EXPECT_DOUBLE_EQ(self.at("work"), 0.001);
    EXPECT_NEAR(self.at("child"), child - leaf - 0.001, 1e-12);
    EXPECT_NEAR(self.at("root"), rec.duration(root) - child, 1e-12);
    EXPECT_GT(self.at("child"), 0.0);

    // Self times over a subtree add up to the root's duration.
    double sum = 0.0;
    for (const auto &kv : self)
        sum += kv.second;
    EXPECT_NEAR(sum, rec.duration(root), 1e-12);
}

TEST(Spans, SubtreeExcludesSiblingRoots)
{
    SpanRecorder rec;
    {
        ScopedSpan a(&rec, "a");
        ScopedSpan inner(&rec, "inner");
    }
    const int b = rec.begin("b");
    rec.charge("work", 0.0);
    rec.end(b);
    const auto self = rec.selfTimes(b);
    EXPECT_EQ(self.count("a"), 0u);
    EXPECT_EQ(self.count("inner"), 0u);
    EXPECT_EQ(self.count("b"), 1u);
    EXPECT_EQ(self.count("work"), 1u);
}

TEST(OpenLoop, LatencyCountsFromDueTimeAndLatenessIsReported)
{
    std::vector<OpenLoopSample> s(4);
    s[0] = {1.000, 1.000, 1.002, true};  // on time, 2 ms
    s[1] = {1.010, 1.030, 1.032, true};  // sent 20 ms late: 22 ms
    s[2] = {1.020, 1.020, 1.050, true};  // 30 ms: over the limit
    s[3] = {1.030, 1.031, 1.032, false}; // fast but failed
    const OpenLoopSummary sum = summarizeOpenLoop(s, 25.0);
    ASSERT_EQ(sum.latencyMs.size(), 4u);
    EXPECT_NEAR(sum.latencyMs[1], 22.0, 1e-9);
    EXPECT_NEAR(sum.lateMs[0], 0.0, 1e-9);
    EXPECT_NEAR(sum.lateMs[1], 20.0, 1e-9);
    EXPECT_NEAR(sum.lateMs[3], 1.0, 1e-9);
    EXPECT_EQ(sum.sent, 4u);
    EXPECT_EQ(sum.missed, 2u);
}

TEST(OpenLoop, EarlySendIsNotNegativeLateness)
{
    const OpenLoopSummary sum =
        summarizeOpenLoop({{2.0, 1.999, 2.001, true}}, 25.0);
    EXPECT_DOUBLE_EQ(sum.lateMs[0], 0.0);
    EXPECT_EQ(sum.missed, 0u);
}

TEST(Digests, WrongExpectedDigestIsReportedAsFailures)
{
    const DigestList actual = {{"SpMV|a", 1}, {"SpMV|b", 2}, {"SpMM|a", 3}};
    DigestList expected = actual;
    EXPECT_EQ(countMismatches(actual, expected), 0u);
    expected[1].digest ^= 1;
    EXPECT_EQ(countMismatches(actual, expected), 1u);
    expected.pop_back();
    EXPECT_EQ(countMismatches(actual, expected), 2u);
    EXPECT_EQ(countMismatches(actual, {}), 3u);
}

TEST(Digests, FileRoundTripAndCorruptionIsRejected)
{
    const std::string path = ::testing::TempDir() + "hostbench.digests";
    const DigestList list = {{"SpMV|a", 0x0123456789abcdefULL},
                             {"SpGEMM|b", 7}};
    ASSERT_TRUE(writeDigests(path, 42, list));
    std::uint64_t seed = 0;
    DigestList back;
    ASSERT_TRUE(loadDigests(path, &seed, &back));
    EXPECT_EQ(seed, 42u);
    EXPECT_EQ(countMismatches(back, list), 0u);

    std::FILE *f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("SpMM|c not-hex\n", f);
    std::fclose(f);
    EXPECT_FALSE(loadDigests(path, &seed, &back));
    std::remove(path.c_str());
}

TEST(Digests, ResultDigestSeesEveryCounter)
{
    unistc::RunResult a;
    a.cycles = 10;
    unistc::RunResult b = a;
    EXPECT_EQ(resultDigest(a), resultDigest(b));
    b.traffic.writesC = 1;
    EXPECT_NE(resultDigest(a), resultDigest(b));
    b = a;
    b.energy.compute = 1e-300;
    EXPECT_NE(resultDigest(a), resultDigest(b));
}

TEST(OpenLoop, WindowedPercentileIsTheMedianOfWindows)
{
    // Three windows of 20 samples; latency = window index + 1 ms, and
    // one stalled sample in the middle window.
    std::vector<OpenLoopSample> s;
    for (int i = 0; i < 60; ++i) {
        const double due = i * 0.01;
        const double ms = (i / 20 + 1) + (i == 30 ? 500.0 : 0.0);
        s.push_back({due, due, due + ms / 1e3, true});
    }
    // Shuffled input: windows follow due order, not input order.
    std::swap(s[3], s[47]);
    EXPECT_NEAR(windowedPercentile(s, 20, 0.5), 2.0, 1e-9);
    // Twenty samples support no p90: no window qualifies.
    EXPECT_DOUBLE_EQ(windowedPercentile(s, 20, 0.9), 0.0);
    // A short trailing window is left out.
    s.resize(50);
    EXPECT_NEAR(windowedPercentile(s, 20, 0.5), 1.5, 1e-9);
}
