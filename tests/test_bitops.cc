/**
 * @file
 * Unit tests for the bit-manipulation primitives the bitmap pipeline
 * is built on: the single-word helpers, the SWAR 4x4 helpers
 * (exhaustive over all 65536 bitmaps) and the bulk buffer kernels.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"

namespace unistc
{
namespace
{

/** Set bits of @p v counted one bit at a time. */
int
naiveBits(std::uint64_t v)
{
    int n = 0;
    for (int b = 0; b < 64; ++b)
        n += static_cast<int>((v >> b) & 1u);
    return n;
}

TEST(Bitops, Popcount16)
{
    for (unsigned v = 0; v <= 0xFFFF; ++v) {
        ASSERT_EQ(popcount16(static_cast<std::uint16_t>(v)), naiveBits(v))
            << "v=" << v;
    }
}

TEST(Bitops, Popcount64EdgesAndRandom)
{
    const std::uint64_t edges[] = {
        0, ~std::uint64_t{0}, 1, std::uint64_t{1} << 63,
        0x8000000000000001ull, 0x5555555555555555ull,
        0xAAAAAAAAAAAAAAAAull, 0x00000000FFFFFFFFull,
        0xFFFFFFFF00000000ull, 0x0F0F0F0F0F0F0F0Full,
        0x0101010101010101ull, 0xFF00FF00FF00FF00ull};
    for (std::uint64_t v : edges) {
        EXPECT_EQ(popcount64(v), naiveBits(v)) << std::hex << v;
    }
    for (int b = 0; b < 64; ++b) {
        EXPECT_EQ(popcount64(std::uint64_t{1} << b), 1);
        EXPECT_EQ(popcount64(~(std::uint64_t{1} << b)), 63);
    }
    Rng rng(12);
    for (int n = 0; n < 10000; ++n) {
        const std::uint64_t v = rng.next();
        ASSERT_EQ(popcount64(v), naiveBits(v)) << std::hex << v;
    }
}

TEST(Bitops, BitRankExhaustive)
{
    for (unsigned v = 0; v <= 0xFFFF; ++v) {
        const std::uint16_t w = static_cast<std::uint16_t>(v);
        int below = 0;
        for (int idx = 0; idx <= 16; ++idx) {
            ASSERT_EQ(bitRank(w, idx), below) << "v=" << v << " idx=" << idx;
            if (idx < 16)
                below += testBit(w, idx);
        }
    }
}

TEST(Bitops, TestAndSetBit)
{
    std::uint16_t v = 0;
    EXPECT_FALSE(testBit(v, 3));
    v = setBit(v, 3);
    EXPECT_TRUE(testBit(v, 3));
    EXPECT_FALSE(testBit(v, 2));
    v = setBit(v, 15);
    EXPECT_TRUE(testBit(v, 15));
    EXPECT_EQ(popcount16(v), 2);
}

TEST(Bitops, BitRankCountsBitsBelow)
{
    const std::uint16_t v = 0b1011'0010'0110'1001;
    EXPECT_EQ(bitRank(v, 0), 0);
    EXPECT_EQ(bitRank(v, 1), 1); // only bit 0 below
    EXPECT_EQ(bitRank(v, 4), 2); // bits 0, 3
    EXPECT_EQ(bitRank(v, 15), popcount16(v) - 1);
}

TEST(Bitops, SelectBitInvertsRank)
{
    const std::uint16_t v = 0b0110'1001'0011'0100;
    const int n = popcount16(v);
    for (int i = 0; i < n; ++i) {
        const int pos = selectBit(v, i);
        ASSERT_GE(pos, 0);
        EXPECT_TRUE(testBit(v, pos));
        EXPECT_EQ(bitRank(v, pos), i);
    }
    EXPECT_EQ(selectBit(v, n), -1);
    EXPECT_EQ(selectBit(0, 0), -1);
}

TEST(Bitops, ExclusivePrefixRanks)
{
    const std::uint16_t v = 0b0000'0000'1010'0001;
    const auto ranks = exclusivePrefixRanks(v);
    EXPECT_EQ(ranks[0], 0);
    EXPECT_EQ(ranks[1], 1); // bit 0 set
    EXPECT_EQ(ranks[5], 1);
    EXPECT_EQ(ranks[6], 2); // bits 0 and 5 set
    EXPECT_EQ(ranks[15], 3);
}

TEST(Bitops, ForEachSetBitVisitsLsbFirst)
{
    std::vector<int> seen;
    forEachSetBit(0b1000'0000'0010'0100,
                  [&](int idx) { seen.push_back(idx); });
    EXPECT_EQ(seen, (std::vector<int>{2, 5, 15}));

    seen.clear();
    forEachSetBit(0, [&](int idx) { seen.push_back(idx); });
    EXPECT_TRUE(seen.empty());
}

TEST(Bitops, Row4AndCol4Agree)
{
    // Build a known 4x4 map: diagonal plus (0,3).
    std::uint16_t m = 0;
    for (int i = 0; i < 4; ++i)
        m = setBit(m, bit4x4(i, i));
    m = setBit(m, bit4x4(0, 3));

    EXPECT_EQ(row4(m, 0), 0b1001);
    EXPECT_EQ(row4(m, 1), 0b0010);
    EXPECT_EQ(col4(m, 3), 0b1001);
    EXPECT_EQ(col4(m, 0), 0b0001);
}

TEST(Bitops, Transpose4x4)
{
    std::uint16_t m = 0;
    m = setBit(m, bit4x4(0, 3));
    m = setBit(m, bit4x4(2, 1));
    const std::uint16_t t = transpose4x4(m);
    EXPECT_TRUE(testBit(t, bit4x4(3, 0)));
    EXPECT_TRUE(testBit(t, bit4x4(1, 2)));
    EXPECT_EQ(popcount16(t), 2);
    EXPECT_EQ(transpose4x4(t), m);
}

TEST(Bitops, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(ceilDiv(16, 16), 1u);
}

// ---------------------------------------------------------------------
// SWAR 4x4 helpers vs their bitwise definitions (exhaustive: 65536).
// ---------------------------------------------------------------------

TEST(BitopsSwar, Transpose4x4Exhaustive)
{
    for (unsigned v = 0; v <= 0xFFFF; ++v) {
        const std::uint16_t w = static_cast<std::uint16_t>(v);
        std::uint16_t naive = 0;
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
                if (testBit(w, bit4x4(r, c)))
                    naive = setBit(naive, bit4x4(c, r));
            }
        }
        ASSERT_EQ(transpose4x4(w), naive) << "v=" << v;
    }
}

TEST(BitopsSwar, Col4Exhaustive)
{
    for (unsigned v = 0; v <= 0xFFFF; ++v) {
        const std::uint16_t w = static_cast<std::uint16_t>(v);
        for (int c = 0; c < 4; ++c) {
            std::uint16_t naive = 0;
            for (int r = 0; r < 4; ++r) {
                if (testBit(w, r * 4 + c))
                    naive = setBit(naive, r);
            }
            ASSERT_EQ(col4(w, c), naive) << "v=" << v << " c=" << c;
        }
    }
}

TEST(BitopsSwar, NibbleHelpersExhaustive)
{
    for (unsigned v = 0; v <= 0xFFFF; ++v) {
        const std::uint16_t w = static_cast<std::uint16_t>(v);
        std::uint16_t nz = 0, live = 0;
        for (int i = 0; i < 4; ++i) {
            if (((w >> (4 * i)) & 0xFu) != 0) {
                nz = static_cast<std::uint16_t>(nz | (1u << (4 * i)));
                live = static_cast<std::uint16_t>(live
                                                  | (0xFu << (4 * i)));
            }
        }
        ASSERT_EQ(nonzeroNibbles4(w), nz) << "v=" << v;
        ASSERT_EQ(liveNibbleMask4(w), live) << "v=" << v;
    }
    for (unsigned v = 0; v <= 0xF; ++v) {
        ASSERT_EQ(rep4(static_cast<std::uint16_t>(v)),
                  static_cast<std::uint16_t>(v * 0x1111u));
    }
}

TEST(BitopsSwar, BitRankFullWidthIsDefined)
{
    // Regression pin: bitRank(v, 16) must count the whole word. The
    // shift (1u << 16) is evaluated in 32-bit arithmetic so this is
    // well-defined, but an earlier refactor risked a 16-bit shift
    // (UB caught by ubsan). Keep this exact.
    for (std::uint16_t v : {std::uint16_t{0x0000}, std::uint16_t{0xFFFF},
                            std::uint16_t{0x8000},
                            std::uint16_t{0x5A5A}}) {
        EXPECT_EQ(bitRank(v, 16), popcount16(v));
        EXPECT_EQ(bitRank(v, 0), 0);
    }
}

// ---------------------------------------------------------------------
// Bulk bitmap kernels vs the naive bit-by-bit definitions below, over
// every tail length and every 2-byte misalignment. (The suite names
// date from when the kernels also had vector backends.)
// ---------------------------------------------------------------------

std::vector<std::uint16_t>
randomWords(Rng &rng, std::size_t n)
{
    std::vector<std::uint16_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint16_t>(rng.nextInRange(0, 0xFFFF));
    return out;
}

std::uint64_t
naivePopcount(const std::uint16_t *p, std::size_t n,
              std::uint16_t mask = 0xFFFF)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (int b = 0; b < 16; ++b)
            total += ((p[i] & mask) >> b) & 1u;
    }
    return total;
}

void
naiveTranspose16x16(const std::uint16_t *in, std::uint16_t *out)
{
    for (int c = 0; c < 16; ++c) {
        out[c] = 0;
        for (int r = 0; r < 16; ++r) {
            if ((in[r] >> c) & 1u)
                out[c] = static_cast<std::uint16_t>(out[c] | (1u << r));
        }
    }
}

TEST(BitopsSimdOracle, PopcountMatchesNaiveExhaustive8Bit)
{
    for (unsigned v = 0; v <= 0xFF; ++v) {
        const std::uint16_t w = static_cast<std::uint16_t>(v);
        EXPECT_EQ(popcountBuffer16(&w, 1), naivePopcount(&w, 1));
    }
}

TEST(BitopsSimdOracle, Transpose16x16MatchesBitwiseDefinition)
{
    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        const auto rows = randomWords(rng, 16);
        std::uint16_t cols[16];
        transpose16x16(rows.data(), cols);
        for (int r = 0; r < 16; ++r) {
            for (int c = 0; c < 16; ++c) {
                EXPECT_EQ((cols[c] >> r) & 1, (rows[r] >> c) & 1)
                    << "r=" << r << " c=" << c;
            }
        }
    }
}

TEST(BitopsSimd, PopcountAllBackendsAllTails)
{
    Rng rng(21);
    // 0..33 covers every tail of the 4-word batches several times.
    for (std::size_t n = 0; n <= 33; ++n) {
        const auto words = randomWords(rng, n);
        EXPECT_EQ(popcountBuffer16(words.data(), n),
                  naivePopcount(words.data(), n))
            << "n=" << n;
    }
}

TEST(BitopsSimd, MaskedPopcountAllBackendsAllTails)
{
    Rng rng(24);
    for (std::size_t n = 0; n <= 33; ++n) {
        const auto words = randomWords(rng, n);
        for (std::uint16_t mask :
             {std::uint16_t{0x0000}, std::uint16_t{0xFFFF},
              std::uint16_t{0x1111}, std::uint16_t{0x8001},
              static_cast<std::uint16_t>(rng.nextInRange(0, 0xFFFF))}) {
            EXPECT_EQ(maskedPopcount16(words.data(), n, mask),
                      naivePopcount(words.data(), n, mask))
                << "n=" << n << " mask=" << mask;
        }
    }
}

TEST(BitopsSimd, Transpose16x16AllBackends)
{
    Rng rng(25);
    for (int trial = 0; trial < 200; ++trial) {
        const auto rows = randomWords(rng, 16);
        std::uint16_t want[16];
        naiveTranspose16x16(rows.data(), want);
        std::uint16_t got[16];
        transpose16x16(rows.data(), got);
        EXPECT_EQ(std::memcmp(got, want, sizeof(got)), 0)
            << "trial " << trial;
    }
}

TEST(BitopsSimd, Transpose16x16InPlace)
{
    Rng rng(26);
    for (int trial = 0; trial < 50; ++trial) {
        const auto rows = randomWords(rng, 16);
        std::uint16_t want[16];
        naiveTranspose16x16(rows.data(), want);
        std::uint16_t buf[16];
        std::memcpy(buf, rows.data(), sizeof(buf));
        transpose16x16(buf, buf); // in == out must be safe
        EXPECT_EQ(std::memcmp(buf, want, sizeof(buf)), 0);
    }
}

TEST(BitopsSimd, UnalignedBuffers)
{
    // The batched loads read four words at a time through uint16_t*,
    // so offsets 0..15 words cover every 2-byte misalignment.
    Rng rng(27);
    const auto backing = randomWords(rng, 4096);
    for (std::size_t off = 0; off < 16; ++off) {
        const std::uint16_t *p = backing.data() + off;
        const std::size_t n = 4096 - off;
        EXPECT_EQ(popcountBuffer16(p, n), naivePopcount(p, n))
            << "off=" << off;
        EXPECT_EQ(maskedPopcount16(p, n, 0x5A3C),
                  naivePopcount(p, n, 0x5A3C))
            << "off=" << off;
    }
}

TEST(BitopsSimd, WideRandomBuffers)
{
    Rng rng(28);
    for (std::size_t n : {64u, 255u, 1024u, 100000u}) {
        const auto a = randomWords(rng, n);
        EXPECT_EQ(popcountBuffer16(a.data(), n),
                  naivePopcount(a.data(), n))
            << "n=" << n;
        EXPECT_EQ(maskedPopcount16(a.data(), n, 0x0F0F),
                  naivePopcount(a.data(), n, 0x0F0F))
            << "n=" << n;
    }
}

} // namespace
} // namespace unistc
