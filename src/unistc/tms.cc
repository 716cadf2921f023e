#include "unistc/tms.hh"

#include <algorithm>
#include <array>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "unistc/sdpu.hh"

namespace unistc
{

namespace
{

/**
 * One live A tile (i, k), prepared once per T1 task and shared by
 * every (i, j, k) triple that reads it.
 */
struct ATileOps
{
    std::uint16_t tile = 0;
    /** Lane r (16 bits) holds row r broadcast to all four nibbles. */
    std::uint64_t rows = 0;
    /** Transposed tile: nibble k is column k of A. */
    std::uint16_t cols = 0;
    /** Nibble k is 0xF iff column k of A is non-empty. */
    std::uint16_t liveCols = 0;
};

/**
 * One live B tile (k, j) restricted to the output columns, prepared
 * once per T1 task and shared by every triple that reads it.
 */
struct BTileOps
{
    std::uint16_t tile = 0;
    /** Transposed tile (nibble c = column c) in all four lanes. */
    std::uint64_t cols = 0;
    /** Tile masked to the output columns: nibble k is row k. */
    std::uint16_t rows = 0;
    /** Nibble k is 0xF iff row k of the masked tile is non-empty. */
    std::uint16_t liveRows = 0;
};

ATileOps
prepareA(std::uint16_t tile)
{
    ATileOps op;
    op.tile = tile;
    std::uint64_t spread = 0;
    for (int r = 0; r < kTileSize; ++r)
        spread |= std::uint64_t{row4(tile, r)} << (16 * r);
    // Lane values are at most 0xF, so one multiply broadcasts every
    // lane's row into its four nibbles without carries between lanes.
    op.rows = spread * 0x1111u;
    op.cols = transpose4x4(tile);
    op.liveCols = liveNibbleMask4(op.cols);
    return op;
}

BTileOps
prepareB(std::uint16_t tile, int n_cols)
{
    BTileOps op;
    op.tile = tile;
    const std::uint32_t keep = (1u << (4 * n_cols)) - 1u;
    op.cols = std::uint64_t{transpose4x4(tile) & keep} *
        0x0001000100010001ull;
    op.rows = static_cast<std::uint16_t>(
        tile & rep4(static_cast<std::uint16_t>((1u << n_cols) - 1u)));
    op.liveRows = liveNibbleMask4(op.rows);
    return op;
}

/**
 * Build the task for (i, j, k) if it produces any work. Lane r, nibble
 * c, bit k of the match word is A(r, k) & B(k, c), so products and
 * segments (tileProductCount / tileSegmentCount) are two popcounts of
 * it and the operand counts (activeOperands) two more. A dead tile's
 * ops are all zero, so its triples yield no match.
 */
bool
makeTask(const ATileOps &a, const BTileOps &b, int i, int j, int k,
         TileTask &out)
{
    const std::uint64_t match = a.rows & b.cols;
    if (!match)
        return false; // bitmap product is empty: DPG emits nothing
    const std::uint64_t nonzero_nibbles =
        (match | (match >> 1) | (match >> 2) | (match >> 3)) &
        0x1111111111111111ull;
    out.i = static_cast<std::int8_t>(i);
    out.j = static_cast<std::int8_t>(j);
    out.k = static_cast<std::int8_t>(k);
    out.aTile = a.tile;
    out.bTile = b.tile;
    out.products = popcount64(match);
    out.segments = popcount64(nonzero_nibbles);
    out.aElems = popcount16(static_cast<std::uint16_t>(a.cols & b.liveRows));
    out.bElems = popcount16(static_cast<std::uint16_t>(b.rows & a.liveCols));
    return true;
}

/**
 * Stable insertion sort into column-major (j, i) order; a layer holds
 * at most 16 tasks, so this beats std::stable_sort's buffer churn.
 */
void
sortLayerColMajor(TileTask *first, TileTask *last)
{
    for (TileTask *it = first + 1; it < last; ++it) {
        TileTask v = *it;
        TileTask *hole = it;
        while (hole > first &&
               (v.j < hole[-1].j ||
                (v.j == hole[-1].j && v.i < hole[-1].i))) {
            *hole = hole[-1];
            --hole;
        }
        *hole = v;
    }
}

} // namespace

const char *
toString(TaskOrdering ordering)
{
    switch (ordering) {
      case TaskOrdering::OuterProduct:
        return "outer-product";
      case TaskOrdering::DotProduct:
        return "dot-product";
      case TaskOrdering::RowRow:
        return "row-row";
    }
    return "?";
}

TileTaskList
generateTileTasks(const PatternMeta &a_meta, const PatternMeta &b_meta,
                  int n_tile_cols, TaskOrdering ordering, bool adaptive)
{
    UNISTC_ASSERT(n_tile_cols == 1 || n_tile_cols == kTilesPerEdge,
                  "tile columns must be 1 (MV) or 4 (MM)");
    const int n_cols = n_tile_cols == 1 ? 1 : 4;
    TileTaskList tasks;

    // Tile-level work, once per live tile: the Lv1 maps say which
    // tiles exist, and B tiles past the output tile columns are never
    // read.
    const std::uint16_t b_live = static_cast<std::uint16_t>(
        b_meta.tileBits &
        rep4(static_cast<std::uint16_t>((1u << n_tile_cols) - 1u)));
    std::array<ATileOps, kBlockSize> a_ops{};
    std::array<BTileOps, kBlockSize> b_ops{};
    forEachSetBit(a_meta.tileBits,
                  [&](int t) { a_ops[t] = prepareA(a_meta.tiles[t]); });
    forEachSetBit(b_live, [&](int t) {
        b_ops[t] = prepareB(b_meta.tiles[t], n_cols);
    });

    const auto emit = [&](int i, int j, int k) {
        TileTask t;
        if (makeTask(a_ops[i * kTilesPerEdge + k],
                     b_ops[k * kTilesPerEdge + j], i, j, k, t)) {
            tasks.push_back(t);
            return true;
        }
        return false;
    };

    switch (ordering) {
      case TaskOrdering::OuterProduct:
        // Four-layer intermediate-product bitmap: one layer per K.
        // Within a layer only live A tile rows and B tile columns are
        // visited, in the same (i outer, j inner) order.
        for (int k = 0; k < kTilesPerEdge; ++k) {
            const std::uint16_t rows_k = col4(a_meta.tileBits, k);
            const std::uint16_t cols_k = row4(b_live, k);
            if (!rows_k || !cols_k)
                continue;
            // Collect the layer first so the adaptive intra-layer
            // order can inspect its shape.
            const std::size_t layer_begin = tasks.size();
            std::uint16_t live_rows = 0;
            std::uint16_t live_cols = 0;
            forEachSetBit(rows_k, [&](int i) {
                forEachSetBit(cols_k, [&](int j) {
                    if (emit(i, j, k)) {
                        live_rows = setBit(live_rows, i);
                        live_cols = setBit(live_cols, j);
                    }
                });
            });
            // Adaptive rule (§IV-A-1 ②): column-major when nonzero
            // rows outnumber nonzero columns, row-major otherwise.
            const bool col_major = adaptive &&
                popcount16(live_rows) > popcount16(live_cols);
            if (col_major) {
                sortLayerColMajor(tasks.data() + layer_begin,
                                  tasks.data() + tasks.size());
            }
        }
        break;

      case TaskOrdering::DotProduct:
        for (int i = 0; i < kTilesPerEdge; ++i) {
            for (int j = 0; j < n_tile_cols; ++j) {
                for (int k = 0; k < kTilesPerEdge; ++k)
                    emit(i, j, k);
            }
        }
        break;

      case TaskOrdering::RowRow:
        for (int i = 0; i < kTilesPerEdge; ++i) {
            for (int k = 0; k < kTilesPerEdge; ++k) {
                for (int j = 0; j < n_tile_cols; ++j)
                    emit(i, j, k);
            }
        }
        break;
    }
    return tasks;
}

std::vector<TileTask>
generateTileTasks(const BlockPattern &a, const BlockPattern &b,
                  int n_tile_cols, TaskOrdering ordering, bool adaptive)
{
    const TileTaskList tasks =
        generateTileTasks(computePatternMeta(a), computePatternMeta(b),
                          n_tile_cols, ordering, adaptive);
    return std::vector<TileTask>(tasks.begin(), tasks.end());
}

OrderingStats
analyzeOrdering(const BlockPattern &a, const BlockPattern &b,
                int n_tile_cols, TaskOrdering ordering, int num_dpgs,
                int mac_count)
{
    OrderingStats stats;
    const TileTaskList tasks =
        generateTileTasks(computePatternMeta(a), computePatternMeta(b),
                          n_tile_cols, ordering, /*adaptive=*/true);
    if (tasks.empty())
        return stats;

    // Theoretical fetches: one tile fetch per task per operand.
    // Actual fetches: distinct tiles per cycle (same-cycle sharing is
    // the reuse the TMS ordering creates).
    const std::uint64_t theoretical = tasks.size();
    std::uint64_t actual_a = 0;
    std::uint64_t actual_b = 0;
    std::uint64_t parallel_sum = 0;
    std::uint64_t aligned_sum = 0;
    std::uint64_t conflict_cycles = 0;
    std::uint64_t num_cycles = 0;

    forEachSdpuCycle(
        std::span<const TileTask>(tasks.data(), tasks.size()),
        num_dpgs, mac_count, /*check_conflicts=*/true,
        [&](const SdpuCycleView &cycle) {
            // Tile identities fit a 16-bit mask (i*4+k, k*4+j in
            // 0..15), so distinct-tile counting is two popcounts.
            std::uint16_t a_tiles = 0;
            std::uint16_t b_tiles = 0;
            int k_count[kTilesPerEdge] = {0, 0, 0, 0};
            for (const TileTask *t : cycle.executed) {
                a_tiles = setBit(a_tiles, t->i * kTilesPerEdge + t->k);
                b_tiles = setBit(b_tiles, t->k * kTilesPerEdge + t->j);
                ++k_count[t->k];
            }
            actual_a += static_cast<std::uint64_t>(popcount16(a_tiles));
            actual_b += static_cast<std::uint64_t>(popcount16(b_tiles));
            parallel_sum += cycle.executed.size();
            int aligned = 0;
            for (int c : k_count)
                aligned = std::max(aligned, c);
            aligned_sum += static_cast<std::uint64_t>(aligned);
            if (cycle.hadConflict)
                ++conflict_cycles;
            ++num_cycles;
        });

    stats.cycles = num_cycles;
    stats.reuseRateA = 1.0 - static_cast<double>(actual_a) /
        static_cast<double>(theoretical);
    stats.reuseRateB = 1.0 - static_cast<double>(actual_b) /
        static_cast<double>(theoretical);
    stats.avgParallelTasks = static_cast<double>(parallel_sum) /
        static_cast<double>(num_cycles);
    stats.avgAlignedTasks = static_cast<double>(aligned_sum) /
        static_cast<double>(num_cycles);
    stats.writeConflictRate = static_cast<double>(conflict_cycles) /
        static_cast<double>(num_cycles);
    return stats;
}

} // namespace unistc
