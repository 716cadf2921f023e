/**
 * @file
 * Shared grouped row-dataflow engine parameterised on the T3 geometry
 * M x N x K. RM-STC (8x4x2 @FP64) and Trapezoid's three modes are all
 * instances of this engine:
 *
 *  - rows of A are processed in lock-stepped groups of M;
 *  - each row consumes its nonzero scalars K at a time;
 *  - for each scalar group the touched B rows are merged (row-merge)
 *    and the merged column set is swept N columns per sub-step;
 *  - a group's cycle count is the maximum over its rows (load
 *    imbalance inside a group leaves lanes idle — the inefficiency
 *    the paper attributes to both RM-STC and Trapezoid).
 */

#ifndef UNISTC_STC_ROW_DATAFLOW_HH
#define UNISTC_STC_ROW_DATAFLOW_HH

#include <algorithm>

#include "common/bitops.hh"
#include "obs/trace.hh"
#include "stc/stc_model.hh"

namespace unistc
{

/**
 * Execute one T1 task under the M x N x K grouped row dataflow,
 * accumulating into @p res. @p c_net_units is the architecture's
 * static C-write network scale recorded per cycle.
 *
 * @param gather_columns when true (RM-STC) the merged B columns are
 *        gathered into dense N-wide segments; when false (Trapezoid)
 *        the engine sweeps fixed N-wide column chunks of the output
 *        extent and can only skip chunks that are entirely empty —
 *        B-side sparsity inside a chunk wastes lanes.
 * @param trace optional event sink: one span per row group on the
 *        SDPU track.
 */
inline void
runRowDataflow(const BlockTask &task, const MachineConfig &cfg,
               int t3m, int t3n, int t3k, int c_net_units,
               RunResult &res, bool gather_columns = true,
               TraceSink *trace = nullptr)
{
    ++res.tasksT1;
    const std::uint64_t t1_start = res.cycles;
    const int mac = cfg.macCount;
    const int n_ext = task.nExtent();

    // Active-column mask of the N extent (all 16 for MM, col 0 for MV).
    const std::uint16_t n_mask = n_ext == kBlockSize
        ? 0xFFFFu
        : static_cast<std::uint16_t>((1u << n_ext) - 1u);
    // Column bitmaps of B: bit k of bCols[c] says row k holds column c.
    const std::uint16_t *b_cols = task.bInfo().cols.data();

    // Lock-step effective products per cycle of the current group:
    // row sub-step s lands in cycle s, and the group runs as many
    // cycles as its longest row. A row runs at most ceil(16/t3k)
    // scalar groups x ceil(16/t3n) column chunks <= 256 sub-steps.
    // Traffic is an order-free integer total, so it is summed as each
    // sub-step is added.
    int cycle_eff[kBlockSize * kBlockSize];

    for (int g = 0; g < kBlockSize; g += t3m) {
        const int n_rows = std::min(t3m, kBlockSize - g);
        int group_cycles = 0;

        for (int ri = 0; ri < n_rows; ++ri) {
            int step = 0;
            // Adds this row's next sub-step with `products` MACs.
            const auto addStep = [&](int products) {
                if (step == group_cycles)
                    cycle_eff[group_cycles++] = 0;
                cycle_eff[step++] += products;
            };
            std::uint8_t ks[kBlockSize];
            int n_ks = 0;
            forEachSetBit(task.a.rowBits(g + ri), [&](int k) {
                ks[n_ks++] = static_cast<std::uint8_t>(k);
            });

            for (int p = 0; p < n_ks; p += t3k) {
                const int group_sz = std::min(t3k, n_ks - p);
                // A scalars for this group are fetched once.
                res.traffic.readsA += group_sz;
                res.traffic.wastedA += t3k - group_sz;
                ++res.tasksT3;

                // Merged column set and K-lane mask of the touched B
                // rows. The group's K indices are distinct bits of one
                // A row, so a per-column hit count is a popcount of
                // the B column bitmap against the lane mask.
                std::uint16_t merged = 0;
                std::uint16_t gmask = 0;
                for (int q = 0; q < group_sz; ++q) {
                    merged = static_cast<std::uint16_t>(
                        merged | task.b.rowBits(ks[p + q]));
                    gmask = setBit(gmask, ks[p + q]);
                }
                merged &= n_mask;

                if (!merged) {
                    // Scalars matched nothing (e.g. sparse x): the
                    // sub-step is still issued and burns the lanes.
                    addStep(0);
                    continue;
                }

                std::uint8_t cols[kBlockSize];
                int n_cols = 0;
                if (gather_columns) {
                    forEachSetBit(merged, [&](int c) {
                        cols[n_cols++] = static_cast<std::uint8_t>(c);
                    });
                } else {
                    // Fixed chunk sweep: every column of a chunk
                    // containing at least one nonzero is visited.
                    for (int base = 0; base < n_ext; base += t3n) {
                        const int hi = std::min(base + t3n, n_ext);
                        const std::uint16_t chunk_mask =
                            static_cast<std::uint16_t>(
                                ((1u << (hi - base)) - 1u) << base);
                        if (!(merged & chunk_mask))
                            continue;
                        for (int c = base; c < hi; ++c)
                            cols[n_cols++] =
                                static_cast<std::uint8_t>(c);
                    }
                }
                for (int ci = 0; ci < n_cols; ci += t3n) {
                    const int chunk = std::min(t3n, n_cols - ci);
                    int hits = 0;
                    for (int x = 0; x < chunk; ++x)
                        hits += popcount16(b_cols[cols[ci + x]] & gmask);
                    addStep(hits);
                    res.traffic.readsB += hits;
                    // Lanes for scalars whose B row lacks column c
                    // toggle without useful work (row-merge's cost on
                    // disjoint rows).
                    res.traffic.wastedB += chunk * group_sz - hits;
                    res.traffic.writesC += chunk; // K-wide adder merge
                }
            }
        }

        const std::uint64_t group_start = res.cycles;
        for (int cyc = 0; cyc < group_cycles; ++cyc)
            res.recordCycle(mac, cycle_eff[cyc], 0, c_net_units);
        if (group_cycles > 0) {
            UNISTC_TRACE_COMPLETE(trace, TraceTrack::Sdpu,
                                  "row group " + std::to_string(g / t3m),
                                  group_start, res.cycles - group_start);
        }
    }

    UNISTC_TRACE_COMPLETE(trace, TraceTrack::Sdpu, "T1 (row dataflow)",
                          t1_start, res.cycles - t1_start);
}

} // namespace unistc

#endif // UNISTC_STC_ROW_DATAFLOW_HH
