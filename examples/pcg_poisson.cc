/**
 * @file
 * AMG-preconditioned conjugate gradients: composes the two solver
 * substrates (CG from apps/solvers, AMG from apps/amg) and maps the
 * resulting SpMV-dominated kernel stream onto the STC models — the
 * deployment shape of production AMG solvers.
 */

#include <cstdio>

#include "apps/amg/amg.hh"
#include "apps/amg/amg_driver.hh"
#include "apps/solvers/cg.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "corpus/generators.hh"
#include "runner/spmv_runner.hh"
#include "stc/registry.hh"

using namespace unistc;

int
main()
{
    const int grid = 56;
    const CsrMatrix a = genStencil2d(grid, false);
    std::printf("2D Poisson, %dx%d grid (%d unknowns)\n", grid, grid,
                a.rows());

    Rng rng(77);
    std::vector<double> b(a.rows());
    for (auto &v : b)
        v = rng.nextDouble(-1.0, 1.0);

    // Plain CG.
    std::vector<double> x_plain(a.rows(), 0.0);
    const CgStats plain = conjugateGradient(a, x_plain, b, 1e-8,
                                            2000);

    // AMG(1 V-cycle)-preconditioned CG.
    const AmgHierarchy amg(a);
    std::vector<double> x_pcg(a.rows(), 0.0);
    const CgStats pcg = conjugateGradient(
        a, x_pcg, b, 1e-8, 2000,
        [&](const std::vector<double> &r) {
            std::vector<double> z(r.size(), 0.0);
            amg.vCycle(z, r);
            return z;
        });

    std::printf("plain CG:  %4d iterations (residual %.2e)\n",
                plain.iterations, plain.finalResidual);
    std::printf("AMG-PCG:   %4d iterations (residual %.2e)\n\n",
                pcg.iterations, pcg.finalResidual);

    // STC view: fine-grid SpMVs from CG itself plus the V-cycle
    // stream from the preconditioner applications.
    const MachineConfig cfg = MachineConfig::fp64();
    const BbcMatrix a_bbc = BbcMatrix::fromCsr(a);

    TextTable t("AMG-PCG kernel stream per STC (" +
                std::to_string(pcg.iterations) + " iterations)");
    t.setHeader({"STC", "CG SpMV cycles", "V-cycle SpMV cycles",
                 "total"});
    for (const auto &name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        const auto model = makeStcModel(name, cfg);
        RunResult cg_run = runSpmv(*model, a_bbc);
        cg_run.scale(static_cast<std::uint64_t>(pcg.spmvCount));
        const AmgWorkload pre =
            simulateAmg(*model, amg, pcg.iterations);
        t.addRow({name, fmtCount(cg_run.cycles),
                  fmtCount(pre.spmv.cycles),
                  fmtCount(cg_run.cycles + pre.spmv.cycles)});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}
