/**
 * @file
 * Tests for the sparse formats and conversions: construction,
 * validation, round-trips and storage accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "corpus/generators.hh"
#include "sparse/convert.hh"
#include "sparse/sparse_vector.hh"

namespace unistc
{
namespace
{

CsrMatrix
sampleCsr()
{
    // The Fig. 1 example matrix:
    //   a . b .
    //   . c . .
    //   . . . d
    //   e . . f
    CooMatrix coo(4, 4);
    coo.add(0, 0, 1.0); // a
    coo.add(0, 2, 2.0); // b
    coo.add(1, 1, 3.0); // c
    coo.add(2, 3, 4.0); // d
    coo.add(3, 0, 5.0); // e
    coo.add(3, 3, 6.0); // f
    return cooToCsr(std::move(coo));
}

TEST(Coo, NormalizeSortsAndMergesDuplicates)
{
    CooMatrix coo(3, 3);
    coo.add(2, 1, 1.0);
    coo.add(0, 0, 2.0);
    coo.add(2, 1, 3.0); // duplicate, sums to 4
    coo.add(1, 2, -1.0);
    coo.add(1, 2, 1.0); // cancels to zero, dropped
    coo.normalize();
    ASSERT_EQ(coo.nnz(), 2);
    EXPECT_EQ(coo.entries()[0].row, 0);
    EXPECT_EQ(coo.entries()[1].row, 2);
    EXPECT_DOUBLE_EQ(coo.entries()[1].val, 4.0);
}

/**
 * The original COO->CSR assembly: sort row-major, sum adjacent
 * duplicates, drop explicit zeros, then count rows.
 */
CsrMatrix
sortMergeCsr(CooMatrix coo)
{
    std::vector<CooEntry> entries = coo.entries();
    std::sort(entries.begin(), entries.end(),
              [](const CooEntry &a, const CooEntry &b) {
                  if (a.row != b.row)
                      return a.row < b.row;
                  return a.col < b.col;
              });
    std::vector<CooEntry> merged;
    for (const auto &e : entries) {
        if (!merged.empty() && merged.back().row == e.row &&
            merged.back().col == e.col) {
            merged.back().val += e.val;
        } else {
            merged.push_back(e);
        }
    }
    std::erase_if(merged, [](const CooEntry &e) { return e.val == 0.0; });
    std::vector<std::int64_t> row_ptr(coo.rows() + 1, 0);
    std::vector<int> col_idx;
    std::vector<double> vals;
    for (const auto &e : merged) {
        ++row_ptr[e.row + 1];
        col_idx.push_back(e.col);
        vals.push_back(e.val);
    }
    for (int r = 0; r < coo.rows(); ++r)
        row_ptr[r + 1] += row_ptr[r];
    return CsrMatrix(coo.rows(), coo.cols(), std::move(row_ptr),
                     std::move(col_idx), std::move(vals));
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
expectSameBytes(const CsrMatrix &a, const CsrMatrix &b)
{
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    EXPECT_EQ(a.rowPtr(), b.rowPtr());
    EXPECT_EQ(a.colIdx(), b.colIdx());
    EXPECT_TRUE(sameBits(a.vals(), b.vals()));
}

TEST(Coo, OrderedInputMatchesSortMerge)
{
    Rng rng(77);
    CooMatrix coo(300, 250);
    for (int r = 0; r < 300; ++r) {
        if (r % 7 == 3)
            continue; // empty rows
        for (int c = 0; c < 250; ++c) {
            if (rng.nextBool(0.05)) {
                // Some explicit zeros, including -0.0.
                const double v = rng.nextBool(0.1)
                    ? (rng.nextBool(0.5) ? 0.0 : -0.0)
                    : rng.nextDouble(-1.0, 1.0);
                coo.add(r, c, v);
            }
        }
    }
    ASSERT_TRUE(coo.ordered());
    const CsrMatrix want = sortMergeCsr(coo);
    const CsrMatrix got = cooToCsr(coo);
    expectSameBytes(got, want);
    for (double v : got.vals())
        EXPECT_NE(v, 0.0);

    coo.normalize();
    EXPECT_EQ(coo.nnz(), want.nnz());
    EXPECT_TRUE(coo.ordered());
}

TEST(Coo, UnorderedDuplicatesSumAsBefore)
{
    // Duplicates of three and more with distinct values: the sum's
    // rounding depends on the order the sort leaves them in.
    Rng rng(78);
    CooMatrix coo(41, 41);
    for (int i = 0; i < 4000; ++i) {
        const int r = static_cast<int>(rng.nextBelow(40));
        const int c = static_cast<int>(rng.nextBelow(40));
        coo.add(r, c, rng.nextDouble(-1.0, 1.0) * 1e-3 +
                          (rng.nextBool(0.5) ? 1e8 : -1e8));
    }
    // Row and column 40 get only zeros: explicit ones and a pair
    // that cancels.
    coo.add(40, 3, 0.0);
    coo.add(7, 40, -0.0);
    coo.add(40, 40, 2.5);
    coo.add(40, 40, -2.5);
    ASSERT_FALSE(coo.ordered());
    const CsrMatrix m = cooToCsr(coo);
    expectSameBytes(m, sortMergeCsr(coo));
    EXPECT_EQ(m.rowNnz(40), 0);
    for (int c : m.colIdx())
        EXPECT_NE(c, 40);

    // Row-major but with adjacent duplicates: not strictly ordered, so
    // it takes the sort path and still sums.
    CooMatrix dup(3, 3);
    dup.add(0, 1, 0.1);
    dup.add(0, 1, 0.2);
    dup.add(0, 1, 0.3);
    dup.add(2, 2, 1.0);
    dup.add(2, 2, -1.0);
    ASSERT_FALSE(dup.ordered());
    const CsrMatrix d = cooToCsr(dup);
    expectSameBytes(d, sortMergeCsr(dup));
    ASSERT_EQ(d.nnz(), 1);
    EXPECT_EQ(d.vals()[0], (0.1 + 0.2) + 0.3);
}

TEST(CooDeathTest, OrderedOutOfBoundsStillAborts)
{
    CooMatrix past_end(4, 4);
    past_end.add(0, 1, 1.0);
    past_end.add(4, 0, 1.0);
    ASSERT_TRUE(past_end.ordered());
    EXPECT_DEATH(cooToCsr(past_end), "out of bounds");

    CooMatrix negative(4, 4);
    negative.add(0, -1, 1.0);
    negative.add(0, 2, 1.0);
    ASSERT_TRUE(negative.ordered());
    EXPECT_DEATH(cooToCsr(negative), "out of bounds");
}

TEST(Csr, MatchesFig1Example)
{
    const CsrMatrix m = sampleCsr();
    EXPECT_EQ(m.rows(), 4);
    EXPECT_EQ(m.nnz(), 6);
    // RowPtr: 0 2 3 4 6 (the paper's Fig. 1).
    EXPECT_EQ(m.rowPtr(),
              (std::vector<std::int64_t>{0, 2, 3, 4, 6}));
    EXPECT_EQ(m.colIdx(), (std::vector<int>{0, 2, 1, 3, 0, 3}));
    EXPECT_DOUBLE_EQ(m.at(0, 2), 2.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
    EXPECT_EQ(m.rowNnz(3), 2);
}

TEST(Csr, DensityAndStorage)
{
    const CsrMatrix m = sampleCsr();
    EXPECT_DOUBLE_EQ(m.density(), 6.0 / 16.0);
    // 5 row pointers * 8 + 6 cols * 4 + 6 vals * 8.
    EXPECT_EQ(m.storageBytes(), 5u * 8 + 6u * 4 + 6u * 8);
}

TEST(Csr, ApproxEquals)
{
    const CsrMatrix a = sampleCsr();
    CsrMatrix b = sampleCsr();
    EXPECT_TRUE(a.approxEquals(b));
    b.vals()[0] += 1e-12;
    EXPECT_TRUE(a.approxEquals(b, 1e-9));
    b.vals()[0] += 1.0;
    EXPECT_FALSE(a.approxEquals(b, 1e-9));
}

TEST(Convert, CsrCooRoundTrip)
{
    const CsrMatrix m = genRandomUniform(60, 45, 0.08, 5);
    const CsrMatrix back = cooToCsr(csrToCoo(m));
    EXPECT_TRUE(m.approxEquals(back, 0.0));
}

TEST(Convert, CsrCscRoundTrip)
{
    const CsrMatrix m = genRandomUniform(64, 64, 0.1, 6);
    const CscMatrix csc = csrToCsc(m);
    EXPECT_EQ(csc.nnz(), m.nnz());
    csc.validate();
    EXPECT_TRUE(cscToCsr(csc).approxEquals(m, 0.0));
}

TEST(Convert, TransposeTwiceIsIdentity)
{
    const CsrMatrix m = genRandomUniform(40, 70, 0.1, 7);
    const CsrMatrix t = transposeCsr(m);
    EXPECT_EQ(t.rows(), m.cols());
    EXPECT_EQ(t.cols(), m.rows());
    t.validate();
    EXPECT_TRUE(transposeCsr(t).approxEquals(m, 0.0));
    // Spot-check a few coordinates.
    for (int r = 0; r < 10; ++r) {
        for (int c = 0; c < 10; ++c)
            EXPECT_DOUBLE_EQ(m.at(r, c), t.at(c, r));
    }
}

TEST(Convert, BsrRoundTripAndAccounting)
{
    const CsrMatrix m = genRandomUniform(50, 50, 0.07, 8);
    for (int bs : {4, 16}) {
        const BsrMatrix bsr = csrToBsr(m, bs);
        bsr.validate();
        EXPECT_EQ(bsr.logicalNnz(), m.nnz());
        EXPECT_TRUE(bsrToCsr(bsr).approxEquals(m, 0.0));
        // BSR stores full blocks: storage never smaller than values.
        EXPECT_GE(bsr.storageBytes(),
                  static_cast<std::uint64_t>(m.nnz()) * 8);
        // Element lookup agrees with CSR.
        for (int r = 0; r < 20; ++r) {
            for (int c = 0; c < 20; ++c)
                EXPECT_DOUBLE_EQ(bsr.at(r, c), m.at(r, c));
        }
    }
}

TEST(Convert, DenseRoundTrip)
{
    const CsrMatrix m = genRandomUniform(33, 29, 0.15, 9);
    const DenseMatrix d = csrToDense(m);
    EXPECT_EQ(d.countNonzeros(), m.nnz());
    EXPECT_TRUE(denseToCsr(d).approxEquals(m, 0.0));
}

TEST(SparseVector, DenseRoundTrip)
{
    SparseVector v(10);
    v.push(1, 2.0);
    v.push(7, -3.0);
    const auto d = v.toDense();
    EXPECT_DOUBLE_EQ(d[1], 2.0);
    EXPECT_DOUBLE_EQ(d[7], -3.0);
    EXPECT_DOUBLE_EQ(d[0], 0.0);
    const SparseVector back = SparseVector::fromDense(d);
    EXPECT_EQ(back.idx(), v.idx());
    EXPECT_EQ(back.vals(), v.vals());
}

TEST(SparseVector, ConstructorSortsUnsortedInput)
{
    const SparseVector v(8, {5, 2, 7}, {1.0, 2.0, 3.0});
    EXPECT_EQ(v.idx(), (std::vector<int>{2, 5, 7}));
    EXPECT_EQ(v.vals(), (std::vector<double>{2.0, 1.0, 3.0}));
}

TEST(EmptyShapes, AllFormatsHandleEmpty)
{
    const CsrMatrix empty(10, 10);
    EXPECT_EQ(empty.nnz(), 0);
    const CscMatrix csc = csrToCsc(empty);
    EXPECT_EQ(csc.nnz(), 0);
    const BsrMatrix bsr = csrToBsr(empty, 4);
    EXPECT_EQ(bsr.numBlocks(), 0);
    EXPECT_TRUE(bsrToCsr(bsr).approxEquals(empty, 0.0));
}

} // namespace
} // namespace unistc
