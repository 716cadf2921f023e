/**
 * @file
 * Bit-manipulation helpers mirroring the simple hardware primitives the
 * paper's functional units rely on (popcounts, prefix sums over bitmap
 * words, per-bit iteration), plus the bulk kernels over buffers of
 * bitmap words (popcounts, 16x16 transpose) the BBC layer runs on. All
 * operate on 16-bit words because every bitmap in Uni-STC (tile-level
 * and element-level) is a 4x4 = 16-bit map. Plain portable C++: the
 * bulk kernels batch four words per 64-bit load (SWAR).
 *
 * Every popcount here goes through the inline SWAR bodies of
 * popcount16()/popcount64(). On a baseline x86-64 target (no POPCNT)
 * GCC lowers std::popcount to an out-of-line libgcc call, which the
 * simulator's inner loops would otherwise pay once per bitmap count.
 */

#ifndef UNISTC_COMMON_BITOPS_HH
#define UNISTC_COMMON_BITOPS_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace unistc
{

/** Number of set bits in a 16-bit bitmap word (inline SWAR). */
inline int
popcount16(std::uint16_t v)
{
    // Bit pairs, then nibbles, then bytes; the final add folds the
    // high byte's count into the low byte.
    std::uint32_t x = v;
    x -= (x >> 1) & 0x5555u;
    x = (x & 0x3333u) + ((x >> 2) & 0x3333u);
    x = (x + (x >> 4)) & 0x0F0Fu;
    return static_cast<int>((x + (x >> 8)) & 0x1Fu);
}

/** Number of set bits in a 64-bit word (inline SWAR). */
inline int
popcount64(std::uint64_t v)
{
    // Per-byte counts as in popcount16(); the multiply sums all eight
    // bytes into the top one.
    v -= (v >> 1) & 0x5555555555555555ull;
    v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
    v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0Full;
    return static_cast<int>((v * 0x0101010101010101ull) >> 56);
}

/** True when bit @p idx (0 = LSB) is set. */
inline bool
testBit(std::uint16_t v, int idx)
{
    return (v >> idx) & 1u;
}

/** Return @p v with bit @p idx set. */
inline std::uint16_t
setBit(std::uint16_t v, int idx)
{
    return static_cast<std::uint16_t>(v | (1u << idx));
}

/**
 * Rank of a set bit: number of set bits strictly below position @p idx.
 * This is the hardware prefix-sum primitive the DPG uses to map a
 * bitmap position to a compacted value-array offset.
 */
inline int
bitRank(std::uint16_t v, int idx)
{
    const std::uint16_t mask =
        static_cast<std::uint16_t>((1u << idx) - 1u);
    return popcount16(static_cast<std::uint16_t>(v & mask));
}

/** Index (0 = LSB) of the n-th (0-based) set bit; -1 when absent. */
inline int
selectBit(std::uint16_t v, int n)
{
    for (int i = 0; i < 16; ++i) {
        if (testBit(v, i)) {
            if (n == 0)
                return i;
            --n;
        }
    }
    return -1;
}

/**
 * Exclusive prefix-sum of set bits across a 16-entry bitmap, i.e. the
 * compacted offset of every position. Models the prefix-sum units that
 * the paper says drive task dispatch and vector concatenation.
 */
inline std::array<int, 16>
exclusivePrefixRanks(std::uint16_t v)
{
    std::array<int, 16> out{};
    int running = 0;
    for (int i = 0; i < 16; ++i) {
        out[i] = running;
        if (testBit(v, i))
            ++running;
    }
    return out;
}

/** Call @p fn(bitIndex) for every set bit, LSB first. */
template <typename Fn>
inline void
forEachSetBit(std::uint16_t v, Fn &&fn)
{
    while (v) {
        const int idx = std::countr_zero(v);
        fn(idx);
        v = static_cast<std::uint16_t>(v & (v - 1u));
    }
}

/**
 * Interpret a 16-bit word as a 4x4 map in row-major order
 * (bit = r*4 + c) and extract row @p r as a 4-bit value.
 */
inline std::uint16_t
row4(std::uint16_t v, int r)
{
    return static_cast<std::uint16_t>((v >> (4 * r)) & 0xFu);
}

/** Bit index of (r, c) inside a row-major 4x4 bitmap. */
inline int
bit4x4(int r, int c)
{
    return r * 4 + c;
}

/**
 * Transpose a row-major 4x4 bitmap with two delta-swap rounds: the
 * first exchanges the off-diagonal bits of each 2x2 sub-block, the
 * second exchanges the off-diagonal 2x2 sub-blocks themselves.
 */
inline std::uint16_t
transpose4x4(std::uint16_t v)
{
    std::uint16_t t =
        static_cast<std::uint16_t>((v ^ (v >> 3)) & 0x0A0Au);
    v = static_cast<std::uint16_t>(v ^ t ^ (t << 3));
    t = static_cast<std::uint16_t>((v ^ (v >> 6)) & 0x00CCu);
    return static_cast<std::uint16_t>(v ^ t ^ (t << 6));
}

/** Extract column @p c of a row-major 4x4 bitmap as a 4-bit value. */
inline std::uint16_t
col4(std::uint16_t v, int c)
{
    return row4(transpose4x4(v), c);
}

/** Broadcast a 4-bit value into all four nibbles of a 16-bit word. */
inline std::uint16_t
rep4(std::uint16_t v)
{
    return static_cast<std::uint16_t>(v * 0x1111u);
}

/**
 * Collapse each nibble of a row-major 4x4 bitmap to its low bit:
 * bit 4*i of the result is set iff nibble i of @p v is non-zero.
 */
inline std::uint16_t
nonzeroNibbles4(std::uint16_t v)
{
    return static_cast<std::uint16_t>(
        (v | (v >> 1) | (v >> 2) | (v >> 3)) & 0x1111u);
}

/**
 * Expand the low bit of every nibble to a full nibble mask:
 * nibble i of the result is 0xF iff nibble i of @p v is non-zero.
 */
inline std::uint16_t
liveNibbleMask4(std::uint16_t v)
{
    return static_cast<std::uint16_t>(nonzeroNibbles4(v) * 0xFu);
}

/** Four consecutive bitmap words as one 64-bit word (any alignment). */
inline std::uint64_t
load4x16(const std::uint16_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Total set bits across @p n 16-bit bitmap words. */
inline std::uint64_t
popcountBuffer16(const std::uint16_t *p, std::size_t n)
{
    const std::size_t whole = n - n % 4;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < whole; i += 4)
        total += static_cast<std::uint64_t>(popcount64(load4x16(p + i)));
    for (std::size_t i = whole; i < n; ++i)
        total += static_cast<std::uint64_t>(popcount16(p[i]));
    return total;
}

/** Sum of popcount(p[i] & mask) over @p n bitmap words. */
inline std::uint64_t
maskedPopcount16(const std::uint16_t *p, std::size_t n,
                 std::uint16_t mask)
{
    const std::uint64_t wide =
        0x0001000100010001ULL * static_cast<std::uint64_t>(mask);
    const std::size_t whole = n - n % 4;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < whole; i += 4)
        total += static_cast<std::uint64_t>(
            popcount64(load4x16(p + i) & wide));
    for (std::size_t i = whole; i < n; ++i)
        total += static_cast<std::uint64_t>(
            popcount16(static_cast<std::uint16_t>(p[i] & mask)));
    return total;
}

/**
 * Transpose a 16x16 bit matrix: out[c] holds column c (bit r set when
 * in[r] has bit c). Safe with in == out. Hacker's Delight delta-swap
 * transpose, 16-bit edition, with four rows packed per 64-bit word:
 * the 8- and 4-row rounds swap between words, the 2- and 1-row rounds
 * between lanes of one word. The swap direction is mirrored relative
 * to the book because column 0 is the LSB here, not the MSB.
 */
inline void
transpose16x16(const std::uint16_t in[16], std::uint16_t out[16])
{
    // Word w holds rows 4w..4w+3, row 4w in the low lane.
    std::uint64_t w[4];
    for (int i = 0; i < 4; ++i) {
        w[i] = 0;
        for (int r = 0; r < 4; ++r)
            w[i] |= std::uint64_t{in[4 * i + r]} << (16 * r);
    }
    // Delta swap between the rows in lo and the rows j further down,
    // held in hi, on the bits selected by m.
    const auto deltaSwap = [](std::uint64_t &lo, std::uint64_t &hi,
                              int j, std::uint64_t m) {
        const std::uint64_t t = ((lo >> j) ^ hi) & m;
        lo ^= t << j;
        hi ^= t;
    };
    deltaSwap(w[0], w[2], 8, 0x00FF00FF00FF00FFull);
    deltaSwap(w[1], w[3], 8, 0x00FF00FF00FF00FFull);
    deltaSwap(w[0], w[1], 4, 0x0F0F0F0F0F0F0F0Full);
    deltaSwap(w[2], w[3], 4, 0x0F0F0F0F0F0F0F0Full);
    for (std::uint64_t &x : w) {
        // Lanes 0,1 against lanes 2,3, then lanes 0,2 against 1,3.
        std::uint64_t t = ((x >> 2) ^ (x >> 32)) & 0x33333333ull;
        x ^= (t << 2) | (t << 32);
        t = ((x >> 1) ^ (x >> 16)) & 0x0000555500005555ull;
        x ^= (t << 1) | (t << 16);
    }
    for (int i = 0; i < 16; ++i)
        out[i] = static_cast<std::uint16_t>(w[i / 4] >> (16 * (i % 4)));
}

/** Ceiling division for non-negative integers. */
inline std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace unistc

#endif // UNISTC_COMMON_BITOPS_HH
