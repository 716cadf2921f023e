/**
 * @file
 * Extension study: SM-level scaling of Uni-STC (Fig. 7b projection).
 * The paper deploys 4 Uni-STC units per SM; this bench schedules the
 * SpGEMM task stream of each representative matrix on an SM with
 * 1/2/4/8 units and varying warp counts, reporting makespan scaling
 * and unit utilisation — the data behind the 4-units-per-SM choice
 * (beyond 4 units, warp-side load issue limits utilisation).
 */

#include "bench_common.hh"
#include "corpus/representative.hh"
#include "sm/sm_model.hh"

using namespace unistc;

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();

    TextTable t("Extension: SM-level scaling (SpGEMM C = A^2, "
                "8 warps)");
    t.setHeader({"Matrix", "units", "makespan", "speedup vs 1 unit",
                 "unit utilisation"});

    for (const auto &nm : representativeMatrices()) {
        const BbcMatrix bbc = BbcMatrix::fromCsr(nm.matrix);
        const auto bundles = traceSpgemm(bbc, bbc, cfg);
        std::uint64_t base = 0;
        for (int units : {1, 2, 4, 8}) {
            const SmStats s = simulateSm(bundles,
                                         SmConfig{units, 8});
            if (units == 1)
                base = s.makespanCycles;
            t.addRow({nm.name, std::to_string(units),
                      fmtCount(s.makespanCycles),
                      fmtRatio(static_cast<double>(base) /
                               s.makespanCycles),
                      fmtPercent(s.unitUtilisation(units))});
        }
        t.addSeparator();
    }
    driver::report(t.render());

    // Warp-count sensitivity on one matrix.
    const BbcMatrix bbc =
        BbcMatrix::fromCsr(representativeMatrix("pwtk"));
    const auto bundles = traceSpgemm(bbc, bbc, cfg);
    TextTable w("Warp sensitivity (pwtk, 4 units)");
    w.setHeader({"warps", "makespan", "unit utilisation"});
    for (int warps : {1, 2, 4, 8, 16, 32}) {
        const SmStats s = simulateSm(bundles, SmConfig{4, warps});
        w.addRow({std::to_string(warps), fmtCount(s.makespanCycles),
                  fmtPercent(s.unitUtilisation(4))});
    }
    driver::report(w.render());
    return 0;
}
