#include "common/rng.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace unistc
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    UNISTC_ASSERT(bound > 0, "nextBelow bound must be positive");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextInRange(std::int64_t lo, std::int64_t hi)
{
    UNISTC_ASSERT(lo <= hi, "nextInRange requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1ull;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Rng::nextDouble()
{
    // 53 high-quality bits into [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::nextDouble(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

double
Rng::nextGaussian()
{
    double u1 = nextDouble();
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    const double u2 = nextDouble();
    const double two_pi = 6.28318530717958647692;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(two_pi * u2);
}

std::vector<int>
Rng::sampleDistinct(int n, int k)
{
    UNISTC_ASSERT(k >= 0 && k <= n, "sampleDistinct requires 0 <= k <= n");
    std::vector<int> chosen;
    if (k == 0)
        return chosen;
    chosen.reserve(k);
    // Floyd's algorithm: O(k) samples, no O(n) shuffle. Membership is
    // an open-addressed set at load factor <= 1/2, so each test is
    // O(1) expected and large samples stay linear.
    const int log2_slots = std::bit_width(2ull * k - 1);
    const std::uint64_t mask = (1ull << log2_slots) - 1;
    std::vector<int> slots(mask + 1, -1);
    const auto insert = [&](int v) {
        std::uint64_t h =
            (static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ull) >>
            (64 - log2_slots);
        for (; slots[h] >= 0; h = (h + 1) & mask) {
            if (slots[h] == v)
                return false;
        }
        slots[h] = v;
        chosen.push_back(v);
        return true;
    };
    for (int j = n - k; j < n; ++j) {
        // j is new whenever the draw is taken: every pick is < j.
        if (!insert(static_cast<int>(nextBelow(j + 1))))
            insert(j);
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

} // namespace unistc
