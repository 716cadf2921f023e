/**
 * @file
 * BBC format tests: construction from CSR, exact round-trips, the
 * two-level pointer invariants, storage accounting and file I/O.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "bbc/bbc_io.hh"
#include "bbc/bbc_matrix.hh"
#include "common/bitops.hh"
#include "common/rng.hh"
#include "corpus/generators.hh"
#include "sparse/convert.hh"

namespace unistc
{
namespace
{

class BbcRoundTrip : public ::testing::TestWithParam<double>
{
};

TEST_P(BbcRoundTrip, CsrToBbcToCsrIsLossless)
{
    const CsrMatrix m = genRandomUniform(100, 84, GetParam(), 31);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    EXPECT_EQ(bbc.nnz(), m.nnz());
    EXPECT_TRUE(bbc.toCsr().approxEquals(m, 0.0));
}

INSTANTIATE_TEST_SUITE_P(Densities, BbcRoundTrip,
                         ::testing::Values(0.001, 0.01, 0.05, 0.2,
                                           0.7));

TEST(BbcMatrix, EmptyMatrix)
{
    const CsrMatrix m(40, 40);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    EXPECT_EQ(bbc.numBlocks(), 0);
    EXPECT_EQ(bbc.nnz(), 0);
    EXPECT_TRUE(bbc.toCsr().approxEquals(m, 0.0));
}

TEST(BbcMatrix, SingleElement)
{
    CooMatrix coo(40, 40);
    coo.add(19, 33, 5.5);
    const BbcMatrix bbc = BbcMatrix::fromCsr(cooToCsr(std::move(coo)));
    ASSERT_EQ(bbc.numBlocks(), 1);
    // (19, 33) sits in block (1, 2), tile (0, 0) of that block at
    // local (3, 1).
    EXPECT_EQ(bbc.colIdx()[0], 2);
    const BlockPattern p = bbc.blockPattern(0);
    EXPECT_TRUE(p.test(3, 1));
    EXPECT_EQ(p.nnz(), 1);
    EXPECT_EQ(popcount16(bbc.lv1()[0]), 1);
    const auto dense = bbc.blockDense(0);
    EXPECT_DOUBLE_EQ(dense[3 * kBlockSize + 1], 5.5);
}

TEST(BbcMatrix, BlockPatternMatchesCsrStructure)
{
    const CsrMatrix m = genRandomUniform(64, 64, 0.08, 32);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    for (std::int64_t blk = 0; blk < bbc.numBlocks(); ++blk) {
        const BbcBlockView view = bbc.blockView(blk);
        for (int lr = 0; lr < kBlockSize; ++lr) {
            for (int lc = 0; lc < kBlockSize; ++lc) {
                const int r = view.blockRow * kBlockSize + lr;
                const int c = view.blockCol * kBlockSize + lc;
                const bool nz = r < m.rows() && c < m.cols() &&
                    m.at(r, c) != 0.0;
                EXPECT_EQ(view.pattern.test(lr, lc), nz);
            }
        }
    }
}

TEST(BbcMatrix, Lv1MatchesPatternTileBitmap)
{
    const CsrMatrix m = genRandomUniform(80, 80, 0.05, 33);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    for (std::int64_t blk = 0; blk < bbc.numBlocks(); ++blk) {
        EXPECT_EQ(bbc.lv1()[blk],
                  bbc.blockPattern(blk).tileBitmap());
        EXPECT_EQ(bbc.blockTileCount(blk),
                  popcount16(bbc.lv1()[blk]));
    }
}

TEST(BbcMatrix, ValPtrLv2OffsetsAreTilePrefixSums)
{
    const CsrMatrix m = genRandomUniform(48, 48, 0.15, 34);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    for (std::int64_t blk = 0; blk < bbc.numBlocks(); ++blk) {
        const std::int64_t base = bbc.tileBase(blk);
        int offset = 0;
        for (int t = 0; t < bbc.blockTileCount(blk); ++t) {
            EXPECT_EQ(bbc.valPtrLv2()[base + t], offset);
            offset += popcount16(bbc.lv2()[base + t]);
        }
    }
}

TEST(BbcMatrix, NnzPerBlockAndStorage)
{
    const CsrMatrix dense_band = genBanded(96, 12, 0.9, 35);
    const BbcMatrix bbc = BbcMatrix::fromCsr(dense_band);
    EXPECT_GT(bbc.nnzPerBlock(), 1.0);
    // Storage = metadata + 8 bytes per value.
    EXPECT_EQ(bbc.storageBytes(),
              bbc.metadataBytes() +
                  static_cast<std::uint64_t>(bbc.nnz()) * 8);
    // For a dense-ish band, BBC must beat CSR (the Fig. 15 claim for
    // NnzPB > 3.57).
    EXPECT_GT(bbc.nnzPerBlock(), 3.57);
    EXPECT_LT(bbc.storageBytes(), dense_band.storageBytes());
}

TEST(BbcMatrix, StorageBytesScalesWithValueWidth)
{
    // Regression: storageBytes() used to hard-code 8 B/value; FP32
    // machine configs (MachineConfig::bytesPerValue() == 4) need the
    // width parameterised. Metadata is width-independent.
    const CsrMatrix m = genBanded(64, 8, 0.8, 37);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    const std::uint64_t nnz = static_cast<std::uint64_t>(bbc.nnz());
    EXPECT_EQ(bbc.storageBytes(), bbc.metadataBytes() + nnz * 8);
    EXPECT_EQ(bbc.storageBytes(4), bbc.metadataBytes() + nnz * 4);
    EXPECT_EQ(bbc.storageBytes() - bbc.storageBytes(4), nnz * 4);
}

TEST(BbcMatrix, SparseMatrixBbcOverheadIsBounded)
{
    // Hyper-sparse: one element per block at most; BBC metadata may
    // exceed CSR's but stays within a small factor.
    const CsrMatrix m = genRandomUniform(256, 256, 0.0005, 36);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    EXPECT_LE(bbc.storageBytes(), m.storageBytes() * 4);
}

TEST(BbcIo, SaveLoadRoundTrip)
{
    const CsrMatrix m = genRandomUniform(72, 72, 0.07, 37);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    const std::string path = testing::TempDir() + "/unistc_t.bbc";
    saveBbcFile(path, bbc);
    const BbcMatrix back = loadBbcFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(back.rows(), bbc.rows());
    EXPECT_EQ(back.cols(), bbc.cols());
    EXPECT_EQ(back.numBlocks(), bbc.numBlocks());
    EXPECT_EQ(back.lv1(), bbc.lv1());
    EXPECT_EQ(back.lv2(), bbc.lv2());
    EXPECT_EQ(back.valPtrLv2(), bbc.valPtrLv2());
    EXPECT_TRUE(back.toCsr().approxEquals(m, 0.0));
}

TEST(BbcMatrix, NonMultipleOf16Shapes)
{
    // Shapes straddling block boundaries exercise edge blocks.
    for (const auto &[r, c] : {std::pair{17, 31}, {15, 16},
                               {33, 7}, {100, 3}}) {
        const CsrMatrix m = genRandomUniform(r, c, 0.2, 38 + r);
        const BbcMatrix bbc = BbcMatrix::fromCsr(m);
        EXPECT_TRUE(bbc.toCsr().approxEquals(m, 0.0))
            << r << "x" << c;
    }
}

/** The eight BBC arrays, as the original converter built them. */
struct BbcArrays
{
    std::vector<std::int64_t> rowPtr;
    std::vector<int> colIdx;
    std::vector<std::uint16_t> lv1;
    std::vector<std::int64_t> tileBase;
    std::vector<std::uint16_t> lv2;
    std::vector<std::int64_t> valPtrLv1;
    std::vector<std::uint8_t> valPtrLv2;
    std::vector<double> vals;
};

/**
 * The original fromCsr: per touched block column, a pattern plus a
 * dense 16x16 value scratch, read back tile by tile.
 */
BbcArrays
scratchFromCsr(const CsrMatrix &csr)
{
    BbcArrays out;
    const int block_rows = static_cast<int>(ceilDiv(csr.rows(), kBlockSize));
    const int block_cols = static_cast<int>(ceilDiv(csr.cols(), kBlockSize));
    std::vector<BlockPattern> pattern(block_cols);
    std::vector<std::int32_t> slot(block_cols, -1);
    std::vector<std::array<double, kBlockSize * kBlockSize>> scratch;
    std::vector<int> touched;
    out.rowPtr.assign(block_rows + 1, 0);
    for (int br = 0; br < block_rows; ++br) {
        touched.clear();
        const int r_end = std::min((br + 1) * kBlockSize, csr.rows());
        for (int r = br * kBlockSize; r < r_end; ++r) {
            const int lr = r % kBlockSize;
            for (std::int64_t i = csr.rowPtr()[r];
                 i < csr.rowPtr()[r + 1]; ++i) {
                const int c = csr.colIdx()[i];
                const int bc = c / kBlockSize;
                const int lc = c % kBlockSize;
                if (slot[bc] < 0) {
                    slot[bc] = static_cast<std::int32_t>(touched.size());
                    touched.push_back(bc);
                    if (scratch.size() < touched.size())
                        scratch.emplace_back();
                }
                pattern[bc].set(lr, lc);
                scratch[slot[bc]][lr * kBlockSize + lc] = csr.vals()[i];
            }
        }
        std::sort(touched.begin(), touched.end());
        out.rowPtr[br + 1] =
            out.rowPtr[br] + static_cast<std::int64_t>(touched.size());
        for (const int bc : touched) {
            const BlockPattern &pat = pattern[bc];
            const auto &dense = scratch[slot[bc]];
            out.colIdx.push_back(bc);
            const std::uint16_t lv1 = pat.tileBitmap();
            out.lv1.push_back(lv1);
            out.tileBase.push_back(
                static_cast<std::int64_t>(out.lv2.size()));
            out.valPtrLv1.push_back(
                static_cast<std::int64_t>(out.vals.size()));
            int block_offset = 0;
            forEachSetBit(lv1, [&](int tile_bit) {
                const int ti = tile_bit / kTilesPerEdge;
                const int tj = tile_bit % kTilesPerEdge;
                const std::uint16_t lv2 = pat.tilePattern(ti, tj);
                out.lv2.push_back(lv2);
                out.valPtrLv2.push_back(
                    static_cast<std::uint8_t>(block_offset));
                forEachSetBit(lv2, [&](int elem_bit) {
                    const int lr = ti * kTileSize + elem_bit / kTileSize;
                    const int lc = tj * kTileSize + elem_bit % kTileSize;
                    out.vals.push_back(dense[lr * kBlockSize + lc]);
                });
                block_offset += popcount16(lv2);
            });
            pattern[bc] = BlockPattern();
            slot[bc] = -1;
        }
    }
    return out;
}

/** The original toCsr: dense blocks into a COO, then cooToCsr. */
CsrMatrix
cooToCsrReference(const BbcMatrix &bbc)
{
    CooMatrix coo(bbc.rows(), bbc.cols());
    for (std::int64_t blk = 0; blk < bbc.numBlocks(); ++blk) {
        const BbcBlockView view = bbc.blockView(blk);
        const auto dense = bbc.blockDense(blk);
        for (int lr = 0; lr < kBlockSize; ++lr) {
            for (int lc = 0; lc < kBlockSize; ++lc) {
                if (view.pattern.test(lr, lc)) {
                    coo.add(view.blockRow * kBlockSize + lr,
                            view.blockCol * kBlockSize + lc,
                            dense[lr * kBlockSize + lc]);
                }
            }
        }
    }
    return cooToCsr(std::move(coo));
}

/** Bit-for-bit equality of two value arrays (so -0.0 != 0.0). */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](double x, double y) {
                          return std::bit_cast<std::uint64_t>(x) ==
                              std::bit_cast<std::uint64_t>(y);
                      });
}

/** Byte equality of the three CSR arrays. */
void
expectSameCsr(const CsrMatrix &a, const CsrMatrix &b)
{
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    EXPECT_EQ(a.rowPtr(), b.rowPtr());
    EXPECT_EQ(a.colIdx(), b.colIdx());
    EXPECT_TRUE(sameBits(a.vals(), b.vals()));
}

/** Edge shapes for the converters, built straight from CSR arrays. */
std::vector<CsrMatrix>
edgeShapes()
{
    std::vector<CsrMatrix> out;
    const auto build = [&](int rows, int cols, auto &&keep, auto &&value) {
        std::vector<std::int64_t> row_ptr(rows + 1, 0);
        std::vector<int> col_idx;
        std::vector<double> vals;
        for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
                if (keep(r, c)) {
                    col_idx.push_back(c);
                    vals.push_back(value(r, c));
                }
            }
            row_ptr[r + 1] = static_cast<std::int64_t>(col_idx.size());
        }
        out.emplace_back(rows, cols, std::move(row_ptr),
                         std::move(col_idx), std::move(vals));
    };
    const auto distinct = [](int r, int c) { return 1.0 + r * 1000 + c; };
    Rng rng(91);
    // Shapes that are not multiples of 16, at several densities.
    for (const double d : {0.02, 0.3, 0.9}) {
        build(37, 45, [&](int, int) { return rng.nextBool(d); },
              distinct);
    }
    // Empty block rows: only block rows 0 and 3 of 6 hold entries.
    build(90, 70,
          [&](int r, int) {
              return (r < 16 || (r >= 48 && r < 64)) && rng.nextBool(0.2);
          },
          distinct);
    // One full 16x16 block (all 256 values, 16 full tiles).
    build(32, 48, [](int r, int c) { return r >= 16 && c < 16; },
          distinct);
    // A row spanning every block column, next to sparse rows.
    build(40, 333,
          [&](int r, int) { return r == 21 || rng.nextBool(0.01); },
          distinct);
    // Stored zeros (and -0.0) are kept in BBC, like any value.
    build(20, 20, [](int r, int c) { return (r + c) % 3 == 0; },
          [](int r, int c) {
              return r % 4 == 0 ? 0.0 : (r % 4 == 1 ? -0.0 : r + c + 0.5);
          });
    // A single row, a single column and a shape with no entries.
    build(1, 70, [](int, int c) { return c % 5 == 0; }, distinct);
    build(70, 1, [](int r, int) { return r % 3 == 0; }, distinct);
    build(50, 50, [](int, int) { return false; }, distinct);
    return out;
}

TEST(BbcMatrix, FromCsrMatchesScratchReference)
{
    std::vector<CsrMatrix> shapes = edgeShapes();
    shapes.push_back(genPowerLaw(3000, 8.0, 2.2, 5));
    shapes.push_back(genBanded(2000, 20, 0.4, 6));
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        SCOPED_TRACE(i);
        const CsrMatrix &m = shapes[i];
        const BbcMatrix bbc = BbcMatrix::fromCsr(m);
        const BbcArrays want = scratchFromCsr(m);
        EXPECT_EQ(bbc.rowPtr(), want.rowPtr);
        EXPECT_EQ(bbc.colIdx(), want.colIdx);
        EXPECT_EQ(bbc.lv1(), want.lv1);
        std::vector<std::int64_t> tile_base;
        for (std::int64_t blk = 0; blk < bbc.numBlocks(); ++blk)
            tile_base.push_back(bbc.tileBase(blk));
        EXPECT_EQ(tile_base, want.tileBase);
        EXPECT_EQ(bbc.lv2(), want.lv2);
        EXPECT_EQ(bbc.valPtrLv1(), want.valPtrLv1);
        EXPECT_EQ(bbc.valPtrLv2(), want.valPtrLv2);
        EXPECT_TRUE(sameBits(bbc.vals(), want.vals));

        // toCsr drops the stored zeros, as the COO path did.
        expectSameCsr(bbc.toCsr(), cooToCsrReference(bbc));
    }
}

TEST(BbcMatrix, ToCsrRoundTripsThousandsOfBlockRows)
{
    // 3000 block rows; the power-law head rows span many block
    // columns, the tail rows touch one or two blocks each.
    const CsrMatrix m = genPowerLaw(48000, 4.0, 2.2, 12);
    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    ASSERT_EQ(bbc.blockRows(), 3000);
    expectSameCsr(bbc.toCsr(), m);

    // blockView finds each block's row by binary search; check it
    // against a linear walk of rowPtr for every block.
    int br = 0;
    for (std::int64_t blk = 0; blk < bbc.numBlocks(); ++blk) {
        while (bbc.rowPtr()[br + 1] <= blk)
            ++br;
        ASSERT_EQ(bbc.blockView(blk).blockRow, br) << "block " << blk;
    }
}

} // namespace
} // namespace unistc
