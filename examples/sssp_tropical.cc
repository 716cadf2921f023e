/**
 * @file
 * Single-source shortest paths over the tropical (min, +) semiring —
 * an extension workload showing that the structural task stream, and
 * therefore the STC simulation, is semiring-agnostic: each Bellman-
 * Ford relaxation round is one SpMV whose index-matching work is
 * identical to the (+, x) case.
 */

#include <cmath>
#include <cstdio>

#include "bbc/bbc_matrix.hh"
#include "common/table.hh"
#include "corpus/generators.hh"
#include "kernels/semiring.hh"
#include "runner/spmv_runner.hh"
#include "sparse/convert.hh"
#include "stc/registry.hh"

using namespace unistc;

int
main()
{
    const int nodes = 1024;
    CsrMatrix adj = genPowerLaw(nodes, 6.0, 2.3, 31);
    randomizeValues(adj, 32); // edge weights in [0.1, 1)
    const CsrMatrix adj_t = transposeCsr(adj);

    const SsspResult res = ssspMinPlus(adj_t, /*source=*/0);
    int reachable = 0;
    double max_dist = 0.0;
    for (double d : res.dist) {
        if (!std::isinf(d)) {
            ++reachable;
            max_dist = std::max(max_dist, d);
        }
    }
    std::printf("SSSP over %d nodes: %d reachable, eccentricity "
                "%.3f, %d relaxation rounds\n\n",
                nodes, reachable, max_dist, res.rounds);

    // Each round is one (min, +) SpMV — replay the stream.
    const BbcMatrix bbc = BbcMatrix::fromCsr(adj_t);
    const MachineConfig cfg = MachineConfig::fp64();
    TextTable t("SSSP relaxation stream (" +
                std::to_string(res.rounds) + " rounds of SpMV)");
    t.setHeader({"STC", "total cycles", "energy"});
    for (const auto &name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        const auto model = makeStcModel(name, cfg);
        RunResult r = runSpmv(*model, bbc);
        r.scale(static_cast<std::uint64_t>(res.rounds));
        t.addRow({name, fmtCount(r.cycles),
                  fmtEnergyPj(r.energy.total())});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}
