/**
 * @file
 * Ablation (§IV-G): asynchronous task generation. Uni-STC retires
 * `stc.task_gen` immediately and lets the TMS/DPGs fill the queues
 * while the previous task's numeric phase drains — this bench
 * quantifies the cycles that hiding recovers versus a serialised
 * pipeline, per kernel, on the representative matrices.
 */

#include "bench_common.hh"
#include "corpus/representative.hh"
#include "isa/uwmma.hh"

using namespace unistc;

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();

    TextTable t("Ablation: asynchronous vs serialised task "
                "generation (Uni-STC, UWMMA lifecycle)");
    t.setHeader({"Matrix", "kernel", "serial cycles", "async cycles",
                 "hidden", "instrs"});

    GeoMean gain;
    for (const auto &nm : representativeMatrices()) {
        const BbcMatrix bbc = BbcMatrix::fromCsr(nm.matrix);
        struct Item
        {
            const char *kernel;
            std::vector<TaskBundle> trace;
        };
        std::vector<Item> items;
        items.push_back({"SpMV", traceSpmv(bbc, cfg)});
        items.push_back({"SpGEMM", traceSpgemm(bbc, bbc, cfg)});

        for (const auto &item : items) {
            const LifecycleStats serial =
                simulateLifecycle(item.trace, false);
            const LifecycleStats async =
                simulateLifecycle(item.trace, true);
            const double ratio =
                static_cast<double>(serial.totalCycles) /
                static_cast<double>(async.totalCycles);
            gain.add(ratio);
            t.addRow({nm.name, item.kernel,
                      fmtCount(serial.totalCycles),
                      fmtCount(async.totalCycles),
                      fmtPercent(1.0 -
                                 static_cast<double>(
                                     async.totalCycles) /
                                     serial.totalCycles),
                      fmtCount(async.instructions)});
        }
    }
    driver::report(t.render());
    driver::reportf("\nGeomean speedup from hiding task generation: "
                    "%.2fx\n",
                    gain.value());
    return 0;
}
