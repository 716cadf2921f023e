/**
 * @file
 * Unit tests for Uni-STC's functional units: TMS task generation and
 * ordering, DPG T4 expansion (including the paper's worked '49'
 * example), broadcast-range bounds of the Z-shaped fill, and SDPU
 * packing with write-conflict arbitration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "unistc/dpg.hh"
#include "unistc/sdpu.hh"
#include "unistc/tms.hh"

namespace unistc
{
namespace
{

TEST(Tms, DenseBlockGeneratesAll64Tasks)
{
    const auto tasks = generateTileTasks(BlockPattern::dense(),
                                         BlockPattern::dense(), 4,
                                         TaskOrdering::OuterProduct);
    EXPECT_EQ(tasks.size(), 64u);
    for (const auto &t : tasks) {
        EXPECT_EQ(t.products, 64); // 4x4x4 dense tile triple
        EXPECT_EQ(t.segments, 16);
    }
}

TEST(Tms, OuterProductOrderIsLayerByLayer)
{
    const auto tasks = generateTileTasks(BlockPattern::dense(),
                                         BlockPattern::dense(), 4,
                                         TaskOrdering::OuterProduct);
    // K must be non-decreasing across the stream.
    for (std::size_t i = 1; i < tasks.size(); ++i)
        EXPECT_LE(tasks[i - 1].k, tasks[i].k);
    // Within a layer, all 16 (i, j) pairs are distinct.
    for (int k = 0; k < 4; ++k) {
        std::set<int> seen;
        for (const auto &t : tasks) {
            if (t.k == k)
                seen.insert(t.cTileId());
        }
        EXPECT_EQ(seen.size(), 16u);
    }
}

TEST(Tms, DotProductOrderGroupsByCTile)
{
    const auto tasks = generateTileTasks(BlockPattern::dense(),
                                         BlockPattern::dense(), 4,
                                         TaskOrdering::DotProduct);
    // Consecutive runs of 4 share one C tile.
    for (std::size_t i = 0; i < tasks.size(); i += 4) {
        for (int d = 1; d < 4; ++d) {
            EXPECT_EQ(tasks[i].cTileId(), tasks[i + d].cTileId());
        }
    }
}

TEST(Tms, SkipsEmptyAndNonMatchingTiles)
{
    BlockPattern a, b;
    // A tile (0,0) has a column-3 element; B tile (0,0) holds only
    // rows 0-2: bitmaps intersect structurally but index-match empty.
    a.set(0, 3);
    b.set(0, 0);
    b.set(1, 1);
    b.set(2, 2);
    const auto tasks = generateTileTasks(a, b, 4,
                                         TaskOrdering::OuterProduct);
    EXPECT_TRUE(tasks.empty());
}

TEST(Tms, MvRestrictsToTileColumnZero)
{
    const auto tasks = generateTileTasks(BlockPattern::dense(),
                                         vectorAsBlock(0xFFFF), 1,
                                         TaskOrdering::OuterProduct);
    EXPECT_EQ(tasks.size(), 16u); // 4 i x 4 k, j = 0 only
    for (const auto &t : tasks) {
        EXPECT_EQ(t.j, 0);
        EXPECT_EQ(t.products, 16); // 4 rows x 1 col x 4 k
        EXPECT_EQ(t.segments, 4);
    }
}

TEST(Tms, AdaptiveOrderSelectsColumnMajorForTallLayers)
{
    // A occupies all four tile rows of tile-column 0; B occupies only
    // tile (0, 0): the K=0 layer is a 4-tall, 1-wide strip, so the
    // adaptive rule must emit column-major (j outer) order, which for
    // a single column equals i-ascending.
    BlockPattern a, b;
    for (int r = 0; r < kBlockSize; ++r)
        a.set(r, 0);
    for (int c = 0; c < kTileSize; ++c)
        b.set(0, c);
    const auto tasks = generateTileTasks(a, b, 4,
                                         TaskOrdering::OuterProduct,
                                         true);
    ASSERT_EQ(tasks.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(tasks[i].i, i);
}

// ---------------------------------------------------------------------
// Oracle for the fused T3 generator: the TMS as first written, which
// visited all 64 (i, j, k) triples and derived each task's counts from
// the two tile bitmaps with tileProductCount / tileSegmentCount.
// ---------------------------------------------------------------------

bool
naiveMakeTask(const PatternMeta &a, const PatternMeta &b, int i, int j,
              int k, int n_cols, TileTask &out)
{
    const std::uint16_t a_tile = a.tiles[i * kTilesPerEdge + k];
    const std::uint16_t b_tile = b.tiles[k * kTilesPerEdge + j];
    if (!a_tile || !b_tile)
        return false;
    const int products = tileProductCount(a_tile, b_tile, n_cols);
    if (products == 0)
        return false;
    out.i = static_cast<std::int8_t>(i);
    out.j = static_cast<std::int8_t>(j);
    out.k = static_cast<std::int8_t>(k);
    out.aTile = a_tile;
    out.bTile = b_tile;
    out.products = products;
    out.segments = tileSegmentCount(a_tile, b_tile, n_cols);
    activeOperands(a_tile, b_tile, n_cols, out.aElems, out.bElems);
    return true;
}

std::vector<TileTask>
naiveTileTasks(const PatternMeta &a, const PatternMeta &b,
               int n_tile_cols, TaskOrdering ordering, bool adaptive)
{
    const int n_cols = n_tile_cols == 1 ? 1 : 4;
    std::vector<TileTask> tasks;
    TileTask t;
    switch (ordering) {
      case TaskOrdering::OuterProduct:
        for (int k = 0; k < kTilesPerEdge; ++k) {
            const std::size_t layer_begin = tasks.size();
            std::uint16_t live_rows = 0;
            std::uint16_t live_cols = 0;
            for (int i = 0; i < kTilesPerEdge; ++i) {
                for (int j = 0; j < n_tile_cols; ++j) {
                    if (naiveMakeTask(a, b, i, j, k, n_cols, t)) {
                        tasks.push_back(t);
                        live_rows = setBit(live_rows, i);
                        live_cols = setBit(live_cols, j);
                    }
                }
            }
            if (adaptive && popcount16(live_rows) > popcount16(live_cols)) {
                std::stable_sort(
                    tasks.begin() + static_cast<long>(layer_begin),
                    tasks.end(),
                    [](const TileTask &x, const TileTask &y) {
                        return x.j != y.j ? x.j < y.j : x.i < y.i;
                    });
            }
        }
        break;
      case TaskOrdering::DotProduct:
        for (int i = 0; i < kTilesPerEdge; ++i) {
            for (int j = 0; j < n_tile_cols; ++j) {
                for (int k = 0; k < kTilesPerEdge; ++k) {
                    if (naiveMakeTask(a, b, i, j, k, n_cols, t))
                        tasks.push_back(t);
                }
            }
        }
        break;
      case TaskOrdering::RowRow:
        for (int i = 0; i < kTilesPerEdge; ++i) {
            for (int k = 0; k < kTilesPerEdge; ++k) {
                for (int j = 0; j < n_tile_cols; ++j) {
                    if (naiveMakeTask(a, b, i, j, k, n_cols, t))
                        tasks.push_back(t);
                }
            }
        }
        break;
    }
    return tasks;
}

/** Random and structured A/B block pairs for the generator oracle. */
std::vector<std::pair<BlockPattern, BlockPattern>>
tmsOraclePairs()
{
    std::vector<std::pair<BlockPattern, BlockPattern>> pairs;
    Rng rng(93);
    for (int trial = 0; trial < 120; ++trial) {
        const double da = 0.01 + 0.6 * rng.nextDouble();
        const double db = 0.01 + 0.6 * rng.nextDouble();
        pairs.emplace_back(BlockPattern::random(rng, da),
                           BlockPattern::random(rng, db));
    }
    BlockPattern diag, band, tile_diag, corner;
    for (int r = 0; r < kBlockSize; ++r) {
        diag.set(r, r);
        for (int c = std::max(0, r - 2);
             c <= std::min(kBlockSize - 1, r + 2); ++c)
            band.set(r, c);
        // Only the diagonal tiles are live.
        tile_diag.set(r, (r / kTileSize) * kTileSize + r % 3);
    }
    corner.set(15, 15);
    const BlockPattern structured[] = {BlockPattern{}, BlockPattern::dense(),
                                       diag, band, tile_diag, corner};
    for (const BlockPattern &a : structured) {
        for (const BlockPattern &b : structured)
            pairs.emplace_back(a, b);
        pairs.emplace_back(a, vectorAsBlock(0xA5C3));
        pairs.emplace_back(a, vectorAsBlock(0xFFFF));
    }
    return pairs;
}

TEST(TmsOracle, TaskCountsMatchPerTileDefinitions)
{
    for (const auto &[a, b] : tmsOraclePairs()) {
        const PatternMeta am = computePatternMeta(a);
        const PatternMeta bm = computePatternMeta(b);
        for (int n_tile_cols : {1, kTilesPerEdge}) {
            const int n_cols = n_tile_cols == 1 ? 1 : 4;
            for (TaskOrdering ord :
                 {TaskOrdering::OuterProduct, TaskOrdering::DotProduct,
                  TaskOrdering::RowRow}) {
                for (const TileTask &t :
                     generateTileTasks(am, bm, n_tile_cols, ord)) {
                    ASSERT_LT(t.j, n_tile_cols);
                    EXPECT_EQ(t.aTile, am.tiles[t.i * kTilesPerEdge + t.k]);
                    EXPECT_EQ(t.bTile, bm.tiles[t.k * kTilesPerEdge + t.j]);
                    EXPECT_EQ(t.products,
                              tileProductCount(t.aTile, t.bTile, n_cols));
                    EXPECT_EQ(t.segments,
                              tileSegmentCount(t.aTile, t.bTile, n_cols));
                    int a_elems = -1;
                    int b_elems = -1;
                    activeOperands(t.aTile, t.bTile, n_cols, a_elems,
                                   b_elems);
                    EXPECT_EQ(t.aElems, a_elems);
                    EXPECT_EQ(t.bElems, b_elems);
                }
            }
        }
    }
}

TEST(TmsOracle, TaskListsMatchNaiveEnumeration)
{
    const auto same = [](const TileTask &x, const TileTask &y) {
        return x.i == y.i && x.j == y.j && x.k == y.k &&
            x.aTile == y.aTile && x.bTile == y.bTile &&
            x.products == y.products && x.segments == y.segments &&
            x.aElems == y.aElems && x.bElems == y.bElems;
    };
    for (const auto &[a, b] : tmsOraclePairs()) {
        const PatternMeta am = computePatternMeta(a);
        const PatternMeta bm = computePatternMeta(b);
        for (int n_tile_cols : {1, kTilesPerEdge}) {
            for (TaskOrdering ord :
                 {TaskOrdering::OuterProduct, TaskOrdering::DotProduct,
                  TaskOrdering::RowRow}) {
                for (bool adaptive : {true, false}) {
                    const TileTaskList got = generateTileTasks(
                        am, bm, n_tile_cols, ord, adaptive);
                    const std::vector<TileTask> want = naiveTileTasks(
                        am, bm, n_tile_cols, ord, adaptive);
                    ASSERT_EQ(got.size(), want.size())
                        << toString(ord) << " cols=" << n_tile_cols;
                    for (std::size_t n = 0; n < want.size(); ++n) {
                        EXPECT_TRUE(same(got[n], want[n]))
                            << toString(ord) << " cols=" << n_tile_cols
                            << " adaptive=" << adaptive << " task " << n;
                    }
                }
            }
        }
    }
}

TEST(Dpg, PaperFig9TaskCodeExample)
{
    // Reconstruct the paper's example: T4 task code 0x49 means
    // "accumulate into the 4th nonzero of tile C with sparse pattern
    // 0b1001", i.e. C[r,c] += A[r,0]*B[0,c] + A[r,3]*B[3,c].
    // Build a tile pair whose (1, 3) output matches k = {0, 3} and
    // which has exactly 4 preceding outputs in row-major order.
    std::uint16_t a_tile = 0;
    std::uint16_t b_tile = 0;
    // Row 0 of A dense -> outputs (0, 0..3) rank 0..3 vs dense B col.
    for (int k = 0; k < 4; ++k)
        a_tile = setBit(a_tile, bit4x4(0, k));
    // Row 1 of A: elements at k=0 and k=3.
    a_tile = setBit(a_tile, bit4x4(1, 0));
    a_tile = setBit(a_tile, bit4x4(1, 3));
    // B: column 3 has rows {0, 3}; columns 0..2 have row 1 only (so
    // row 0 of A matches them via k=1).
    b_tile = setBit(b_tile, bit4x4(0, 3));
    b_tile = setBit(b_tile, bit4x4(3, 3));
    for (int c = 0; c < 3; ++c)
        b_tile = setBit(b_tile, bit4x4(1, c));

    const auto tasks = expandTileTask(a_tile, b_tile, 4,
                                      FillOrder::RowMajor);
    // Find the (1, 3) output.
    bool found = false;
    for (const auto &t : tasks) {
        if (t.r == 1 && t.c == 3) {
            found = true;
            EXPECT_EQ(t.pattern, 0b1001);
            EXPECT_EQ(t.target, 4);
            EXPECT_EQ(t.code(), 0x49);
            EXPECT_EQ(t.len(), 2);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Dpg, SegmentsAndProductsConsistent)
{
    Rng rng(91);
    for (int trial = 0; trial < 20; ++trial) {
        const BlockPattern a = BlockPattern::random(rng, 0.3);
        const BlockPattern b = BlockPattern::random(rng, 0.3);
        const std::uint16_t at = a.tilePattern(1, 2);
        const std::uint16_t bt = b.tilePattern(2, 0);
        const auto tasks = expandTileTask(at, bt, 4);
        int products = 0;
        for (const auto &t : tasks)
            products += t.len();
        EXPECT_EQ(products, tileProductCount(at, bt, 4));
        EXPECT_EQ(static_cast<int>(tasks.size()),
                  tileSegmentCount(at, bt, 4));
    }
}

TEST(Dpg, TargetsAreRowMajorRanks)
{
    const auto tasks = expandTileTask(0xFFFF, 0xFFFF, 4,
                                      FillOrder::ZShaped);
    ASSERT_EQ(tasks.size(), 16u);
    for (const auto &t : tasks)
        EXPECT_EQ(t.target, t.r * 4 + t.c);
}

TEST(Dpg, ZShapedFillMeetsPaperBroadcastBounds)
{
    // Dense tiles stress reuse the most: the Z order must keep A
    // within 5 adjacent multipliers and B within 9 (§IV-A-2 ④).
    const auto z = expandTileTask(0xFFFF, 0xFFFF, 4,
                                  FillOrder::ZShaped);
    const BroadcastRange range = broadcastRange(z);
    EXPECT_LE(range.maxRangeA, 5);
    EXPECT_LE(range.maxRangeB, 9);
}

TEST(Dpg, ActiveOperandsSkipDeadElements)
{
    std::uint16_t a_tile = 0;
    std::uint16_t b_tile = 0;
    a_tile = setBit(a_tile, bit4x4(0, 0)); // used: B row 0 live
    a_tile = setBit(a_tile, bit4x4(0, 2)); // dead: B row 2 empty
    b_tile = setBit(b_tile, bit4x4(0, 1)); // used: A col 0 live
    b_tile = setBit(b_tile, bit4x4(3, 1)); // dead: A col 3 empty
    int a_elems = 0, b_elems = 0;
    activeOperands(a_tile, b_tile, 4, a_elems, b_elems);
    EXPECT_EQ(a_elems, 1);
    EXPECT_EQ(b_elems, 1);
}

TEST(Sdpu, PacksUpToMacBudget)
{
    // Five 16-product tasks with distinct C tiles: 4 fit in 64 slots,
    // the fifth spills to a second cycle.
    std::vector<TileTask> tasks;
    for (int i = 0; i < 5; ++i) {
        TileTask t;
        t.i = static_cast<std::int8_t>(i % 4);
        t.j = static_cast<std::int8_t>(i / 4);
        t.k = 0;
        t.products = 16;
        t.segments = 4;
        tasks.push_back(t);
    }
    const auto cycles = scheduleSdpu(tasks, 8, 64);
    ASSERT_EQ(cycles.size(), 2u);
    EXPECT_EQ(cycles[0].executed.size(), 4u);
    EXPECT_EQ(cycles[0].products(), 64);
    EXPECT_EQ(cycles[1].executed.size(), 1u);
}

TEST(Sdpu, DpgCountLimitsParallelTasks)
{
    std::vector<TileTask> tasks;
    for (int i = 0; i < 6; ++i) {
        TileTask t;
        t.i = static_cast<std::int8_t>(i % 4);
        t.j = static_cast<std::int8_t>(i / 4);
        t.k = 0;
        t.products = 4;
        t.segments = 1;
        tasks.push_back(t);
    }
    const auto cycles = scheduleSdpu(tasks, 2, 64);
    ASSERT_EQ(cycles.size(), 3u); // 2 tasks per cycle despite slots
    for (const auto &c : cycles)
        EXPECT_EQ(c.executed.size(), 2u);
}

TEST(Sdpu, WriteConflictStallsSecondTask)
{
    // Two tasks writing the same C tile cannot share a cycle.
    std::vector<TileTask> tasks(2);
    tasks[0].i = tasks[1].i = 1;
    tasks[0].j = tasks[1].j = 2;
    tasks[0].k = 0;
    tasks[1].k = 1;
    tasks[0].products = tasks[1].products = 8;
    tasks[0].segments = tasks[1].segments = 2;
    const auto cycles = scheduleSdpu(tasks, 8, 64);
    ASSERT_EQ(cycles.size(), 2u);
    EXPECT_EQ(cycles[0].executed.size(), 1u);
    EXPECT_EQ(cycles[0].waitingDpgs, 1);
    EXPECT_TRUE(cycles[0].hadConflict);
    EXPECT_EQ(cycles[1].executed.size(), 1u);
    EXPECT_FALSE(cycles[1].hadConflict);
}

TEST(Sdpu, ConflictDoesNotBlockLaterTasks)
{
    // Task 1 conflicts with task 0; task 2 (different C tile) must
    // still execute in the first cycle.
    std::vector<TileTask> tasks(3);
    tasks[0].i = tasks[1].i = 0;
    tasks[0].j = tasks[1].j = 0;
    tasks[1].k = 1;
    tasks[2].i = 3;
    tasks[2].j = 3;
    for (auto &t : tasks) {
        t.products = 8;
        t.segments = 2;
    }
    const auto cycles = scheduleSdpu(tasks, 8, 64);
    ASSERT_EQ(cycles.size(), 2u);
    EXPECT_EQ(cycles[0].executed.size(), 2u);
    EXPECT_EQ(cycles[0].waitingDpgs, 1);
}

TEST(Sdpu, FullTaskOccupiesWholeCycle)
{
    std::vector<TileTask> tasks(2);
    tasks[0].products = 64;
    tasks[0].segments = 16;
    tasks[1].i = 1;
    tasks[1].products = 64;
    tasks[1].segments = 16;
    const auto cycles = scheduleSdpu(tasks, 8, 64);
    ASSERT_EQ(cycles.size(), 2u);
    EXPECT_EQ(cycles[0].products(), 64);
    EXPECT_EQ(cycles[1].products(), 64);
}

// ---------------------------------------------------------------------
// Oracle for the bitmask SDPU packer: the packing loop as first
// written, which kept the pending tasks in a pointer vector and
// rebuilt it every cycle.
// ---------------------------------------------------------------------

struct CycleRecord
{
    std::vector<int> executed; ///< Task indices, in execution order.
    int waitingDpgs = 0;
    bool hadConflict = false;
    int totalProducts = 0;

    bool
    operator==(const CycleRecord &o) const
    {
        return executed == o.executed && waitingDpgs == o.waitingDpgs &&
            hadConflict == o.hadConflict &&
            totalProducts == o.totalProducts;
    }
};

std::vector<CycleRecord>
referenceSdpuCycles(const std::vector<TileTask> &tasks, int num_dpgs,
                    int mac_count, bool check_conflicts)
{
    std::vector<CycleRecord> out;
    std::vector<const TileTask *> pending;
    for (const TileTask &t : tasks)
        pending.push_back(&t);
    std::vector<const TileTask *> next;
    while (!pending.empty()) {
        next.clear();
        CycleRecord cycle;
        int used_slots = 0;
        int used_dpgs = 0;
        std::uint16_t c_tiles = 0;
        bool stop_scan = false;
        for (const TileTask *task : pending) {
            if (stop_scan || used_dpgs == num_dpgs) {
                next.push_back(task);
                continue;
            }
            if (check_conflicts && testBit(c_tiles, task->cTileId())) {
                ++used_dpgs;
                ++cycle.waitingDpgs;
                cycle.hadConflict = true;
                next.push_back(task);
                continue;
            }
            if (used_slots + task->products > mac_count) {
                next.push_back(task);
                stop_scan = true;
                continue;
            }
            used_slots += task->products;
            ++used_dpgs;
            c_tiles = setBit(c_tiles, task->cTileId());
            cycle.executed.push_back(
                static_cast<int>(task - tasks.data()));
        }
        cycle.totalProducts = used_slots;
        out.push_back(cycle);
        std::swap(pending, next);
    }
    return out;
}

std::vector<CycleRecord>
packedCycles(const std::vector<TileTask> &tasks, int num_dpgs,
             int mac_count, bool check_conflicts)
{
    std::vector<CycleRecord> out;
    forEachSdpuCycle(tasks, num_dpgs, mac_count, check_conflicts,
                     [&](const SdpuCycleView &view) {
                         CycleRecord cycle;
                         for (const TileTask *t : view.executed)
                             cycle.executed.push_back(
                                 static_cast<int>(t - tasks.data()));
                         cycle.waitingDpgs = view.waitingDpgs;
                         cycle.hadConflict = view.hadConflict;
                         cycle.totalProducts = view.totalProducts;
                         out.push_back(cycle);
                     });
    return out;
}

std::vector<TileTask>
randomTileTasks(Rng &rng, int n, int mac)
{
    std::vector<TileTask> tasks(static_cast<std::size_t>(n));
    for (TileTask &t : tasks) {
        t.i = static_cast<std::int8_t>(rng.nextInRange(0, 3));
        t.j = static_cast<std::int8_t>(rng.nextInRange(0, 3));
        t.k = static_cast<std::int8_t>(rng.nextInRange(0, 3));
        t.products = static_cast<int>(rng.nextInRange(1, mac));
        t.segments = 1;
    }
    return tasks;
}

TEST(SdpuOracle, PackingMatchesPointerVectorReference)
{
    Rng rng(94);
    for (int trial = 0; trial < 150; ++trial) {
        // Lengths 1..64, with both ends hit every few trials.
        const int n = trial % 10 == 0 ? 64
            : trial % 10 == 1         ? 1
                                      : static_cast<int>(
                                    rng.nextInRange(1, 64));
        for (int mac : {16, 32, 64}) {
            const auto tasks = randomTileTasks(rng, n, mac);
            for (int dpgs : {1, 4, 8, 16}) {
                for (bool conflicts : {true, false}) {
                    EXPECT_TRUE(packedCycles(tasks, dpgs, mac, conflicts) ==
                                referenceSdpuCycles(tasks, dpgs, mac,
                                                    conflicts))
                        << "trial " << trial << " n=" << n << " mac=" << mac
                        << " dpgs=" << dpgs << " conflicts=" << conflicts;
                }
            }
        }
    }
}

TEST(SdpuOracle, GeneratedStreamsMatchReference)
{
    // TMS-ordered streams: the packer's real input shape.
    Rng rng(95);
    for (int trial = 0; trial < 60; ++trial) {
        const BlockPattern a = BlockPattern::random(rng, 0.4);
        const BlockPattern b = BlockPattern::random(rng, 0.4);
        const auto tasks =
            generateTileTasks(a, b, 4, TaskOrdering::OuterProduct);
        for (int dpgs : {1, 4, 8, 16}) {
            EXPECT_TRUE(packedCycles(tasks, dpgs, 64, true) ==
                        referenceSdpuCycles(tasks, dpgs, 64, true))
                << "trial " << trial << " dpgs=" << dpgs;
        }
    }
}

TEST(SdpuDeath, RejectsMoreThan64Tasks)
{
    Rng rng(96);
    const auto tasks = randomTileTasks(rng, 65, 64);
    EXPECT_DEATH(forEachSdpuCycle(tasks, 8, 64, true,
                                  [](const SdpuCycleView &) {}),
                 "at most 64 T3 tasks");
}

TEST(OrderingStudy, OuterProductBeatsAlternativesOnReuse)
{
    // Fig. 10's qualitative claim on random blocks: outer-product
    // ordering achieves at least the reuse and parallelism of the
    // dot-product and row-row orders on average.
    Rng rng(92);
    double outer_reuse = 0.0, dot_reuse = 0.0, rr_reuse = 0.0;
    double outer_par = 0.0;
    const int trials = 40;
    for (int t = 0; t < trials; ++t) {
        const BlockPattern a = BlockPattern::random(rng, 0.25);
        const BlockPattern b = BlockPattern::random(rng, 0.25);
        outer_reuse += analyzeOrdering(a, b, 4,
                                       TaskOrdering::OuterProduct, 8,
                                       64).reuseRateA;
        dot_reuse += analyzeOrdering(a, b, 4,
                                     TaskOrdering::DotProduct, 8,
                                     64).reuseRateA;
        rr_reuse += analyzeOrdering(a, b, 4, TaskOrdering::RowRow, 8,
                                    64).reuseRateA;
        outer_par += analyzeOrdering(a, b, 4,
                                     TaskOrdering::OuterProduct, 8,
                                     64).avgParallelTasks;
    }
    EXPECT_GE(outer_reuse, dot_reuse - 1e-9);
    EXPECT_GE(outer_reuse, rr_reuse - 1e-9);
    EXPECT_GT(outer_par / trials, 1.0);
}

} // namespace
} // namespace unistc
