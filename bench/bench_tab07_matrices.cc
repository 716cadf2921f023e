/**
 * @file
 * Table VII — the eight representative matrices (miniature
 * analogues): n, nnz(A), nnz(C) for C = A^2, and the average number
 * of intermediate products per T1 task (#inter-prod/blk, max 4096).
 *
 * Also the engine's timing evidence: one shared-stream SpGEMM pass
 * per matrix feeding DS-STC, RM-STC and Uni-STC simultaneously, with
 * the enumeration-time vs model-time split printed and published to
 * UNISTC_BENCH_JSON (the "engine" array, enumerate_seconds /
 * model_seconds fields — this is the only bench that opts into the
 * wall-clock fields, so its JSON is not byte-stable across runs).
 */

#include "bench_common.hh"
#include "corpus/representative.hh"
#include "kernels/reference.hh"

using namespace unistc;

int
main(int, char **)
{
    TextTable t("Table VII: representative matrices "
                "(synthetic analogues, C = A^2)");
    t.setHeader({"Matrix A", "n(A)", "nnz(A)", "nnz(C)",
                 "#inter-prod/blk"});

    for (const auto &nm : representativeMatrices()) {
        const CsrMatrix &a = nm.matrix;
        const CsrMatrix c = spgemmSymbolic(a, a);
        const std::int64_t flops = spgemmFlops(a, a);

        // T1 tasks Algorithm 2 issues: matching block pairs.
        const BbcMatrix bbc = BbcMatrix::fromCsr(a);
        std::vector<std::int64_t> col_blocks(bbc.blockCols(), 0);
        for (int bc : bbc.colIdx())
            ++col_blocks[bc];
        std::int64_t pairs = 0;
        for (int bk = 0; bk < bbc.blockRows(); ++bk) {
            pairs += col_blocks[bk] *
                (bbc.rowPtr()[bk + 1] - bbc.rowPtr()[bk]);
        }
        const double inter = pairs
            ? static_cast<double>(flops) / static_cast<double>(pairs)
            : 0.0;

        t.addRow({nm.name, fmtCount(a.rows()), fmtCount(a.nnz()),
                  fmtCount(c.nnz()), fmtDouble(inter, 1)});
    }
    driver::report(t.render());
    driver::reportf("\nPaper reference (full-size originals): "
                    "inter-prod/blk rises from 164.9 (consph) to "
                    "1154.1 (gupta3).\n");

    // Engine timing evidence: one SpGEMM task stream per matrix
    // fans out to the three core models in a single pass. The
    // enumeration/model wall-time split below also lands in the
    // UNISTC_BENCH_JSON "engine" array (timed entries).
    const MachineConfig cfg = MachineConfig::fp64();
    const auto ds = makeStcModel("DS-STC", cfg);
    const auto rm = makeStcModel("RM-STC", cfg);
    const auto uni = makeStcModel("Uni-STC", cfg);
    const std::vector<const StcModel *> lineup = {ds.get(), rm.get(),
                                                  uni.get()};

    TextTable e("Shared-stream engine pass (SpGEMM C = A^2, "
                "DS+RM+Uni): enumeration vs model time");
    e.setHeader({"Matrix", "T1 tasks", "models", "enum ms",
                 "model ms", "enum share"});
    double enum_total = 0.0, model_total = 0.0;
    for (const auto &nm : representativeMatrices()) {
        const bench::Prepared p(nm.name, nm.matrix);
        PipelineCounters counters;
        bench::runKernelLineup(Kernel::SpGEMM, lineup, p,
                               EnergyModel(),
                               /*record_timing=*/true, &counters);
        const double total =
            counters.enumerateSeconds + counters.modelSeconds;
        enum_total += counters.enumerateSeconds;
        model_total += counters.modelSeconds;
        e.addRow({nm.name, fmtCount(counters.tasksGenerated),
                  fmtCount(counters.modelsFanout),
                  fmtDouble(counters.enumerateSeconds * 1e3, 3),
                  fmtDouble(counters.modelSeconds * 1e3, 3),
                  total > 0.0
                      ? fmtPercent(counters.enumerateSeconds / total)
                      : "-"});
    }
    driver::reportf("\n");
    driver::report(e.render());
    driver::reportf("\nEnumeration happens once per (kernel, matrix) "
                    "no matter how many models consume the stream: "
                    "total enum %.3f ms vs model %.3f ms for the "
                    "3-model lineup above.\n",
                    enum_total * 1e3, model_total * 1e3);
    return 0;
}
