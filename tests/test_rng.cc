/**
 * @file
 * Tests for the deterministic RNG: reproducibility, range contracts
 * and rough distribution sanity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hh"

namespace unistc
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(13), 13u);
    // bound 1 always yields 0.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(17);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.nextGaussian();
        sum += v;
        sum2 += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum2 / n, 1.0, 0.1);
}

TEST(Rng, SampleDistinctProperties)
{
    Rng rng(19);
    const auto s = rng.sampleDistinct(100, 20);
    ASSERT_EQ(s.size(), 20u);
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_GE(s[i], 0);
        EXPECT_LT(s[i], 100);
        if (i > 0) {
            EXPECT_LT(s[i - 1], s[i]); // sorted, distinct
        }
    }
}

TEST(Rng, SampleDistinctEdgeCases)
{
    Rng rng(23);
    EXPECT_TRUE(rng.sampleDistinct(10, 0).empty());
    const auto all = rng.sampleDistinct(5, 5);
    EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3, 4}));
}

/**
 * The original sampler: Floyd's algorithm with a linear-scan set.
 * Past k = 3000 that O(k^2) scan takes minutes under the sanitizers,
 * so there the same loop tests membership in a flat table instead.
 */
std::vector<int>
referenceFloyd(Rng &rng, int n, int k)
{
    const bool flat = k > 3000;
    std::vector<char> taken(flat ? n : 0, 0);
    std::vector<int> chosen;
    chosen.reserve(k);
    for (int j = n - k; j < n; ++j) {
        const int t = static_cast<int>(rng.nextBelow(j + 1));
        const bool seen = flat
            ? taken[t] != 0
            : std::find(chosen.begin(), chosen.end(), t) != chosen.end();
        chosen.push_back(seen ? j : t);
        if (flat)
            taken[chosen.back()] = 1;
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

// The hash-set sampler must return the same sample and leave the
// engine in the same state as the original. n = 20000 puts k =
// 63..300 on the set with frequent collisions; the O(n) draws past
// k = 3000 run at 4 seeds.
TEST(Rng, SampleDistinctMatchesLinearFloyd)
{
    for (const int n : {1, 64, 1000, 20000, 100000}) {
        for (const int want : {0, 1, 63, 64, 65, 300, n / 2, n}) {
            const int k = std::min(want, n);
            const int seeds = k > 3000 ? 4 : 40;
            for (int seed = 0; seed < seeds; ++seed) {
                Rng fast(1000 + seed);
                Rng slow(1000 + seed);
                ASSERT_EQ(fast.sampleDistinct(n, k),
                          referenceFloyd(slow, n, k))
                    << "n=" << n << " k=" << k << " seed=" << seed;
                ASSERT_EQ(fast.next(), slow.next())
                    << "n=" << n << " k=" << k << " seed=" << seed;
            }
        }
    }
}

} // namespace
} // namespace unistc
