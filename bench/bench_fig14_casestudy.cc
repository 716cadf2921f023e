/**
 * @file
 * Fig. 14 — the downsized case study: DS-STC, RM-STC and Uni-STC
 * process the same moderately sparse T1 task (the paper uses an
 * 8x8x8 example with 16 multipliers; we run the native 16x16x16 task
 * on the 64-MAC configuration). The paper's outcome — Uni-STC 75%
 * vs RM-STC 50% vs DS-STC 37.5% utilisation — should reproduce as
 * the same ordering.
 */

#include "bench_common.hh"

using namespace unistc;

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();

    // A structured sparse pair reminiscent of the paper's example:
    // clustered nonzeros plus scattered singletons.
    Rng rng(14);
    BlockPattern a, b;
    // Diagonal 2x2 clusters in A.
    for (int blk = 0; blk < 4; ++blk) {
        for (int r = 0; r < 2; ++r) {
            for (int c = 0; c < 2; ++c)
                a.set(blk * 4 + r, blk * 4 + c);
        }
    }
    // A long row and a long column.
    for (int k = 0; k < kBlockSize; k += 2) {
        a.set(6, k);
        b.set(k, 9);
    }
    // Scattered B nonzeros.
    for (int i = 0; i < 48; ++i) {
        b.set(static_cast<int>(rng.nextBelow(16)),
              static_cast<int>(rng.nextBelow(16)));
    }

    const BlockTask task = BlockTask::mm(a, b);
    driver::reportf("Case-study task: nnz(A)=%d nnz(B)=%d "
                    "intermediate products=%d\n\n",
                    a.nnz(), b.nnz(), blockProductCount(a, b));

    TextTable t("Fig. 14: one T1 task on the three STCs (64 MACs)");
    t.setHeader({"STC", "cycles", "products", "MAC utilisation",
                 "C writes"});
    double uni_util = 0, rm_util = 0, ds_util = 0;
    for (const auto &name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        const auto model = makeStcModel(name, cfg);
        RunResult r;
        model->runBlock(task, r);
        const double util = r.utilisation();
        if (model->name() == "Uni-STC")
            uni_util = util;
        else if (model->name() == "RM-STC")
            rm_util = util;
        else
            ds_util = util;
        t.addRow({name, fmtCount(r.cycles), fmtCount(r.products),
                  fmtPercent(util), fmtCount(r.traffic.writesC)});
    }
    driver::report(t.render());

    driver::reportf("\nPaper reference (downsized example): Uni-STC "
                    "75%% vs RM-STC 50%% vs DS-STC 37.5%%.\n");
    driver::reportf("Ordering reproduced: Uni > RM: %s, Uni > DS: %s\n",
                    uni_util > rm_util ? "yes" : "NO",
                    uni_util > ds_util ? "yes" : "NO");
    return 0;
}
