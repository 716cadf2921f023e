/**
 * @file
 * Ablation (§V-A): static load balancing. Compares the balanced
 * block-granular warp partition (the paper's warpRow / warpIndex /
 * warpRowId tables) against a naive row-granular split on the
 * representative matrices, reporting the warp-load imbalance factor
 * and the resulting multi-warp SpMV completion time (max warp load).
 */

#include "bench_common.hh"
#include "corpus/representative.hh"
#include "runner/partition.hh"
#include "unistc/uni_stc.hh"

using namespace unistc;

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const int warps = 32;

    TextTable t("Ablation: warp partitioning (SpMV work per warp, "
                + std::to_string(warps) + " warps)");
    t.setHeader({"Matrix", "row-granular imbalance",
                 "block-granular imbalance", "SpMV speedup from "
                 "balancing"});

    GeoMean gain;
    for (const auto &nm : representativeMatrices()) {
        const BbcMatrix bbc = BbcMatrix::fromCsr(nm.matrix);
        const WarpPartition by_rows = partitionRows(bbc, warps);
        const WarpPartition by_blocks = partitionBlocks(bbc, warps);

        // Simulate each warp's block range on its own Uni-STC; the
        // kernel finishes when the slowest warp finishes.
        const UniStc uni(cfg);
        auto warp_makespan = [&](const WarpPartition &p) {
            std::uint64_t makespan = 0;
            for (const auto &w : p.warps) {
                RunResult r;
                for (std::int64_t blk = w.begin; blk < w.end;
                     ++blk) {
                    uni.runBlock(
                        BlockTask::mv(bbc.blockPattern(blk),
                                      0xFFFFu),
                        r);
                }
                makespan = std::max(makespan, r.cycles);
            }
            return makespan;
        };

        const std::uint64_t rows_time = warp_makespan(by_rows);
        const std::uint64_t blocks_time = warp_makespan(by_blocks);
        const double speedup = static_cast<double>(rows_time) /
            static_cast<double>(std::max<std::uint64_t>(blocks_time,
                                                        1));
        gain.add(speedup);
        t.addRow({nm.name, fmtRatio(by_rows.imbalance()),
                  fmtRatio(by_blocks.imbalance()),
                  fmtRatio(speedup)});
    }
    driver::report(t.render());
    driver::reportf("\nGeomean speedup of the balanced partition: "
                    "%.2fx\n",
                    gain.value());
    return 0;
}
