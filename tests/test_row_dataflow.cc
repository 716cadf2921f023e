/**
 * @file
 * Direct tests of the grouped row-dataflow engine shared by RM-STC
 * and Trapezoid, including the gathered vs fixed-chunk column sweep,
 * and an oracle check against a per-row sub-step table reference.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "stc/row_dataflow.hh"

namespace unistc
{
namespace
{

const MachineConfig kFp64 = MachineConfig::fp64();

RunResult
runEngine(const BlockTask &t, int m, int n, int k, bool gather)
{
    RunResult r;
    runRowDataflow(t, kFp64, m, n, k, 8, r, gather);
    return r;
}

TEST(RowDataflow, ProductConservationAllGeometries)
{
    Rng rng(661);
    const struct
    {
        int m, n, k;
    } geoms[] = {{8, 4, 2}, {16, 4, 1}, {16, 2, 2}, {8, 4, 2}};
    for (int trial = 0; trial < 10; ++trial) {
        const BlockPattern a = BlockPattern::random(rng, 0.2);
        const BlockPattern b = BlockPattern::random(rng, 0.2);
        const BlockTask t = BlockTask::mm(a, b);
        const int expect = blockProductCount(a, b);
        for (const auto &g : geoms) {
            for (bool gather : {true, false}) {
                const RunResult r =
                    runEngine(t, g.m, g.n, g.k, gather);
                EXPECT_EQ(r.products,
                          static_cast<std::uint64_t>(expect));
            }
        }
    }
}

TEST(RowDataflow, NoGatherNeverFaster)
{
    Rng rng(662);
    for (int trial = 0; trial < 15; ++trial) {
        const BlockPattern a = BlockPattern::random(rng, 0.15);
        const BlockPattern b = BlockPattern::random(rng, 0.15);
        const BlockTask t = BlockTask::mm(a, b);
        const RunResult gathered = runEngine(t, 8, 4, 2, true);
        const RunResult fixed = runEngine(t, 8, 4, 2, false);
        EXPECT_GE(fixed.cycles, gathered.cycles);
    }
}

TEST(RowDataflow, NoGatherSkipsEmptyChunks)
{
    // One scalar whose B row lives entirely in columns 0..3: the
    // other three chunks must not cost cycles.
    BlockPattern a, b;
    a.set(0, 0);
    for (int c = 0; c < 4; ++c)
        b.set(0, c);
    const RunResult r =
        runEngine(BlockTask::mm(a, b), 8, 4, 2, false);
    EXPECT_EQ(r.cycles, 1u);
    EXPECT_EQ(r.products, 4u);
}

TEST(RowDataflow, NoGatherPaysInsideChunkSparsity)
{
    // B row with nonzeros at columns {0, 15}: gathered needs one
    // 4-wide sub-step; fixed chunks need two and waste lanes.
    BlockPattern a, b;
    a.set(0, 0);
    b.set(0, 0);
    b.set(0, 15);
    const BlockTask t = BlockTask::mm(a, b);
    EXPECT_EQ(runEngine(t, 8, 4, 2, true).cycles, 1u);
    const RunResult fixed = runEngine(t, 8, 4, 2, false);
    EXPECT_EQ(fixed.cycles, 2u);
    EXPECT_EQ(fixed.products, 2u);
}

TEST(RowDataflow, LockstepChargesSlowestRow)
{
    // Row 0: 8 scalars; rows 1..7 of the group: 0 scalars. The group
    // runs as long as row 0 needs.
    BlockPattern a, b;
    for (int k = 0; k < 8; ++k)
        a.set(0, k);
    for (int k = 0; k < 8; ++k)
        b.set(k, 0);
    const RunResult r =
        runEngine(BlockTask::mm(a, b), 8, 4, 2, true);
    // 4 scalar pairs, each with merged width 1: 4 sub-steps.
    EXPECT_EQ(r.cycles, 4u);
    EXPECT_EQ(r.products, 8u);
    // Utilisation is terrible: only one of eight rows works.
    EXPECT_LT(r.utilisation(), 0.05);
}

TEST(RowDataflow, MvRestrictsToColumnZero)
{
    Rng rng(663);
    const BlockPattern a = BlockPattern::random(rng, 0.3);
    const std::uint16_t x = 0b0011'1100'0011'1100;
    const BlockTask t = BlockTask::mv(a, x);
    const RunResult r = runEngine(t, 8, 4, 2, true);
    EXPECT_EQ(r.products,
              static_cast<std::uint64_t>(blockMvProductCount(a, x)));
}

TEST(RowDataflow, TasksT3CountsScalarGroups)
{
    BlockPattern a, b;
    for (int k = 0; k < 5; ++k) {
        a.set(2, k); // 5 scalars -> 3 pairs at K=2
        b.set(k, 3);
    }
    RunResult r;
    runRowDataflow(BlockTask::mm(a, b), kFp64, 8, 4, 2, 8, r);
    EXPECT_EQ(r.tasksT1, 1u);
    EXPECT_EQ(r.tasksT3, 3u);
}

// ---------------------------------------------------------------------
// Oracle: the engine as first written, which recorded every row's
// sub-steps with their traffic in a table and then replayed the table
// in lock-step, one cycle at a time. The engine must produce exactly
// the same RunResult.
// ---------------------------------------------------------------------

struct RefRowStep
{
    int products = 0;
    int readsB = 0;
    int wastedB = 0;
    int writesC = 0;
};

void
referenceRowDataflow(const BlockTask &task, const MachineConfig &cfg,
                     int t3m, int t3n, int t3k, int c_net_units,
                     RunResult &res, bool gather_columns)
{
    ++res.tasksT1;
    const int mac = cfg.macCount;
    const int n_ext = task.nExtent();
    const std::uint16_t n_mask = n_ext == kBlockSize
        ? 0xFFFFu
        : static_cast<std::uint16_t>((1u << n_ext) - 1u);
    std::vector<RefRowStep> row_steps[kBlockSize];

    for (int g = 0; g < kBlockSize; g += t3m) {
        const int n_rows = std::min(t3m, kBlockSize - g);
        for (int ri = 0; ri < n_rows; ++ri) {
            std::vector<RefRowStep> &steps = row_steps[ri];
            steps.clear();
            std::vector<int> ks;
            for (int k = 0; k < kBlockSize; ++k) {
                if (task.a.test(g + ri, k))
                    ks.push_back(k);
            }
            const int n_ks = static_cast<int>(ks.size());
            for (int p = 0; p < n_ks; p += t3k) {
                const int group_sz = std::min(t3k, n_ks - p);
                res.traffic.readsA += group_sz;
                res.traffic.wastedA += t3k - group_sz;
                ++res.tasksT3;
                std::uint16_t merged = 0;
                for (int q = 0; q < group_sz; ++q)
                    merged |= task.b.rowBits(ks[p + q]);
                merged &= n_mask;
                if (!merged) {
                    steps.push_back(RefRowStep{});
                    continue;
                }
                std::vector<int> cols;
                if (gather_columns) {
                    for (int c = 0; c < kBlockSize; ++c) {
                        if (testBit(merged, c))
                            cols.push_back(c);
                    }
                } else {
                    for (int base = 0; base < n_ext; base += t3n) {
                        const int hi = std::min(base + t3n, n_ext);
                        bool any = false;
                        for (int c = base; c < hi; ++c)
                            any = any || testBit(merged, c);
                        if (!any)
                            continue;
                        for (int c = base; c < hi; ++c)
                            cols.push_back(c);
                    }
                }
                const int n_cols = static_cast<int>(cols.size());
                for (int ci = 0; ci < n_cols; ci += t3n) {
                    RefRowStep step;
                    const int chunk = std::min(t3n, n_cols - ci);
                    for (int x = 0; x < chunk; ++x) {
                        int hits = 0;
                        for (int q = 0; q < group_sz; ++q)
                            hits += task.b.test(ks[p + q], cols[ci + x]);
                        step.products += hits;
                        step.readsB += hits;
                        step.wastedB += group_sz - hits;
                        ++step.writesC;
                    }
                    steps.push_back(step);
                }
            }
        }
        std::size_t group_cycles = 0;
        for (int ri = 0; ri < n_rows; ++ri)
            group_cycles = std::max(group_cycles, row_steps[ri].size());
        for (std::size_t cyc = 0; cyc < group_cycles; ++cyc) {
            int eff = 0;
            for (int ri = 0; ri < n_rows; ++ri) {
                const std::vector<RefRowStep> &steps = row_steps[ri];
                if (cyc < steps.size()) {
                    eff += steps[cyc].products;
                    res.traffic.readsB += steps[cyc].readsB;
                    res.traffic.wastedB += steps[cyc].wastedB;
                    res.traffic.writesC += steps[cyc].writesC;
                }
            }
            res.recordCycle(mac, eff, 0, c_net_units);
        }
    }
}

void
expectSameResult(const RunResult &got, const RunResult &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.products, want.products);
    EXPECT_EQ(got.macSlots, want.macSlots);
    EXPECT_EQ(got.tasksT1, want.tasksT1);
    EXPECT_EQ(got.tasksT3, want.tasksT3);
    EXPECT_EQ(got.stallCycles, want.stallCycles);
    EXPECT_EQ(got.dpgActiveAccum, want.dpgActiveAccum);
    EXPECT_EQ(got.cNetScaleAccum, want.cNetScaleAccum);
    ASSERT_EQ(got.utilHist.numBuckets(), want.utilHist.numBuckets());
    for (int b = 0; b < want.utilHist.numBuckets(); ++b)
        EXPECT_EQ(got.utilHist.bucketCount(b), want.utilHist.bucketCount(b))
            << "bucket " << b;
    EXPECT_EQ(got.utilHist.totalCount(), want.utilHist.totalCount());
    EXPECT_EQ(got.traffic.readsA, want.traffic.readsA);
    EXPECT_EQ(got.traffic.wastedA, want.traffic.wastedA);
    EXPECT_EQ(got.traffic.readsB, want.traffic.readsB);
    EXPECT_EQ(got.traffic.wastedB, want.traffic.wastedB);
    EXPECT_EQ(got.traffic.writesC, want.traffic.writesC);
}

/** A block with a random density per row, so row lengths vary. */
BlockPattern
ragged(Rng &rng)
{
    BlockPattern p;
    for (int r = 0; r < kBlockSize; ++r) {
        const double d = rng.nextDouble();
        for (int c = 0; c < kBlockSize; ++c) {
            if (rng.nextDouble() < d * d)
                p.set(r, c);
        }
    }
    return p;
}

TEST(RowDataflowOracle, MatchesTableReferenceOnEveryGeometry)
{
    const MachineConfig fp64 = MachineConfig::fp64();
    const MachineConfig fp32 = MachineConfig::fp32();
    const struct
    {
        const MachineConfig *cfg;
        int m, n, k;
        bool gather;
        int c_net;
    } engines[] = {
        {&fp64, 8, 4, 2, true, 32},    // RM-STC FP64
        {&fp32, 16, 4, 2, true, 32},   // RM-STC FP32
        {&fp64, 16, 2, 2, false, 32},  // Trapezoid TrIP FP64
        {&fp64, 16, 4, 1, false, 32},  // Trapezoid TrGT FP64
        {&fp64, 8, 4, 2, false, 32},   // Trapezoid TrGS FP64
        {&fp32, 16, 4, 2, false, 32},  // Trapezoid TrIP / TrGT FP32
        {&fp32, 8, 4, 4, false, 32},   // Trapezoid TrGS FP32
    };
    Rng rng(664);
    for (int trial = 0; trial < 60; ++trial) {
        const double da = 0.02 + 0.5 * rng.nextDouble();
        const double db = 0.02 + 0.5 * rng.nextDouble();
        const BlockPattern a = trial % 3 == 0
            ? ragged(rng)
            : BlockPattern::random(rng, da);
        const BlockPattern b = trial % 5 == 0
            ? BlockPattern::dense()
            : BlockPattern::random(rng, db);
        const std::uint16_t x =
            static_cast<std::uint16_t>(rng.nextInRange(0, 0xFFFF));
        for (const BlockTask &t :
             {BlockTask::mm(a, b), BlockTask::mv(a, x)}) {
            for (const auto &e : engines) {
                SCOPED_TRACE(::testing::Message()
                             << "trial " << trial << " mv=" << t.isMv
                             << " geom " << e.m << "x" << e.n << "x"
                             << e.k << " gather=" << e.gather);
                RunResult got;
                RunResult want;
                // Two tasks into one result: accumulation must match
                // too, not only a fresh result.
                for (int rep = 0; rep < 2; ++rep) {
                    runRowDataflow(t, *e.cfg, e.m, e.n, e.k, e.c_net,
                                   got, e.gather);
                    referenceRowDataflow(t, *e.cfg, e.m, e.n, e.k,
                                         e.c_net, want, e.gather);
                }
                expectSameResult(got, want);
            }
        }
    }
}

TEST(RowDataflowOracle, MatchesTableReferenceOnEdgeBlocks)
{
    const MachineConfig fp64 = MachineConfig::fp64();
    BlockPattern diag, one_row, one_col;
    for (int i = 0; i < kBlockSize; ++i) {
        diag.set(i, i);
        one_row.set(3, i);
        one_col.set(i, 9);
    }
    const BlockPattern blocks[] = {BlockPattern{}, BlockPattern::dense(),
                                   diag, one_row, one_col};
    for (const BlockPattern &a : blocks) {
        for (const BlockPattern &b : blocks) {
            for (const BlockTask &t :
                 {BlockTask::mm(a, b), BlockTask::mv(a, 0xFFFF),
                  BlockTask::mv(a, 0x0001)}) {
                for (bool gather : {true, false}) {
                    RunResult got;
                    RunResult want;
                    runRowDataflow(t, fp64, 8, 4, 2, 32, got, gather);
                    referenceRowDataflow(t, fp64, 8, 4, 2, 32, want,
                                         gather);
                    expectSameResult(got, want);
                }
            }
        }
    }
}

} // namespace
} // namespace unistc
