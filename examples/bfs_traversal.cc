/**
 * @file
 * BFS example (Table II: BFS combines SpMV and SpMSpV). Runs a
 * frontier-based BFS where each expansion is an SpMSpV, then replays
 * the recorded frontiers on the STC models to estimate traversal
 * cycles per architecture.
 */

#include <cstdio>

#include "apps/bfs/bfs.hh"
#include "bbc/bbc_matrix.hh"
#include "common/table.hh"
#include "corpus/generators.hh"
#include "runner/spmspv_runner.hh"
#include "sparse/convert.hh"
#include "stc/registry.hh"

using namespace unistc;

int
main()
{
    const int nodes = 1536;
    const CsrMatrix adj = genPowerLaw(nodes, 8.0, 2.3, 77);
    const BfsResult bfs = bfsSpmspv(adj, /*source=*/0);

    int reached = 0;
    int max_level = 0;
    for (int lvl : bfs.level) {
        if (lvl >= 0) {
            ++reached;
            max_level = std::max(max_level, lvl);
        }
    }
    std::printf("BFS over %d nodes: reached %d, depth %d, "
                "%d frontier expansions\n\n",
                nodes, reached, max_level, bfs.iterations);

    // Replay every frontier expansion (y = A^T f) on each STC.
    const CsrMatrix adj_t = transposeCsr(adj);
    const BbcMatrix adj_t_bbc = BbcMatrix::fromCsr(adj_t);

    const MachineConfig cfg = MachineConfig::fp64();
    TextTable t("BFS frontier expansions (SpMSpV) per STC");
    t.setHeader({"STC", "total cycles", "MAC util", "energy"});
    for (const auto &name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        const auto model = makeStcModel(name, cfg);
        RunResult total;
        for (const auto &frontier : bfs.frontiers) {
            total.merge(
                runSpmspv(*model, adj_t_bbc, frontier));
        }
        t.addRow({name, fmtCount(total.cycles),
                  fmtPercent(total.utilisation()),
                  fmtEnergyPj(total.energy.total())});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}
