/**
 * @file
 * Extension study: MAC-array scaling sensitivity. The paper fixes
 * the throughput-aligned budgets at 64 MAC@FP64 / 128 MAC@FP32
 * (§VI-A) and notes Uni-STC "can flexibly scale its precision from
 * 256 MACs@FP16 to 64 MACs@FP64 within the same hardware footprint"
 * (§IV-A). This bench sweeps the SDPU width with a proportionally
 * scaled DPG count and shows that Uni-STC's fine-grained packing
 * keeps utilisation nearly flat, i.e. throughput scales with width.
 */

#include "bench_common.hh"
#include "corpus/representative.hh"
#include "runner/spgemm_runner.hh"
#include "unistc/uni_stc.hh"

using namespace unistc;

int
main(int, char **)
{
    const auto reps = representativeMatrices();
    std::vector<BbcMatrix> bbcs;
    for (const auto &nm : reps)
        bbcs.push_back(BbcMatrix::fromCsr(nm.matrix));

    // Reference: the paper's 64-MAC configuration.
    std::vector<std::uint64_t> ref;
    {
        const UniStc uni(MachineConfig::fp64());
        for (const auto &bbc : bbcs)
            ref.push_back(runSpgemm(uni, bbc, bbc).cycles);
    }

    TextTable t("Extension: SDPU width scaling (Uni-STC, SpGEMM "
                "C = A^2, geomean over the representative set)");
    t.setHeader({"MACs", "DPGs", "MAC utilisation",
                 "throughput vs 64-MAC", "ideal"});

    const struct
    {
        int macs;
        int dpgs;
    } points[] = {{64, 8}, {128, 16}, {256, 32}};

    for (const auto &pt : points) {
        MachineConfig cfg = MachineConfig::fp64();
        cfg.macCount = pt.macs;
        cfg.numDpgs = pt.dpgs;
        const UniStc uni(cfg);

        GeoMean util, speedup;
        for (std::size_t i = 0; i < bbcs.size(); ++i) {
            const RunResult r = runSpgemm(uni, bbcs[i], bbcs[i]);
            util.add(r.utilisation());
            speedup.add(static_cast<double>(ref[i]) / r.cycles);
        }
        t.addRow({std::to_string(pt.macs), std::to_string(pt.dpgs),
                  fmtPercent(util.value()),
                  fmtRatio(speedup.value()),
                  fmtRatio(pt.macs / 64.0)});
    }
    driver::report(t.render());
    driver::reportf("\nReading: throughput tracks the width ratio up "
                    "to 128 MACs (the paper's FP32 point) and "
                    "saturates at 256, where a single T1 task's 16 C "
                    "tiles cap the conflict-free tasks per cycle — "
                    "wider SDPUs would need cross-T1 batching.\n");
    return 0;
}
