/**
 * @file
 * AMG solver example (§VI-D): solve a 2D Poisson problem with the
 * smoothed-aggregation AMG substrate, then map the solver's kernel
 * mix (SpGEMM setup + SpMV V-cycles) onto sparse tensor cores.
 */

#include <cstdio>

#include "apps/amg/amg.hh"
#include "apps/amg/amg_driver.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "corpus/generators.hh"
#include "stc/registry.hh"

using namespace unistc;

int
main()
{
    const int grid = 48;
    const CsrMatrix a = genStencil2d(grid, false);
    std::printf("2D Poisson, %dx%d grid (%d unknowns)\n", grid, grid,
                a.rows());

    const AmgHierarchy hierarchy(a);
    std::printf("AMG hierarchy: %d levels, operator sizes:",
                hierarchy.numLevels());
    for (int l = 0; l < hierarchy.numLevels(); ++l)
        std::printf(" %d", hierarchy.level(l).a.rows());
    std::printf("\n");

    // Solve with a random right-hand side.
    Rng rng(2026);
    std::vector<double> b(a.rows());
    for (auto &v : b)
        v = rng.nextDouble(-1.0, 1.0);
    std::vector<double> x(a.rows(), 0.0);
    const AmgSolveStats stats = hierarchy.solve(x, b, 1e-8, 60);
    std::printf("Solve: %s in %d V-cycles, final residual %.2e\n\n",
                stats.converged ? "converged" : "NOT converged",
                stats.iterations, stats.finalResidual);

    const MachineConfig cfg = MachineConfig::fp64();
    TextTable t("AMG kernel stream per STC (setup SpGEMM + " +
                std::to_string(stats.iterations) +
                " V-cycles of SpMV)");
    t.setHeader({"STC", "SpMV cycles", "SpGEMM cycles",
                 "total energy"});
    for (const auto &name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        const auto model = makeStcModel(name, cfg);
        const AmgWorkload w = simulateAmg(*model, hierarchy,
                                          stats.iterations);
        t.addRow({name, fmtCount(w.spmv.cycles),
                  fmtCount(w.spgemm.cycles),
                  fmtEnergyPj(w.spmv.energy.total() +
                              w.spgemm.energy.total())});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}
