/**
 * @file
 * Combined graph-analytics pipeline on one R-MAT social graph:
 * PageRank (iterated SpMV), BFS (SpMSpV frontiers) and triangle
 * counting (masked SpGEMM) — the three kernel classes of Table II in
 * one workload — with the full pipeline's cycle budget per STC.
 */

#include <cmath>
#include <cstdio>

#include "apps/bfs/bfs.hh"
#include "apps/graph/pagerank.hh"
#include "apps/graph/triangles.hh"
#include "bbc/bbc_matrix.hh"
#include "common/table.hh"
#include "corpus/generators.hh"
#include "runner/spgemm_runner.hh"
#include "runner/spmspv_runner.hh"
#include "runner/spmv_runner.hh"
#include "sparse/convert.hh"
#include "stc/registry.hh"

using namespace unistc;

int
main()
{
    const CsrMatrix adj = genRmat(10, 10, 0.57, 0.19, 0.19, 909);
    std::printf("R-MAT graph: %d vertices, %lld edges\n\n",
                adj.rows(), static_cast<long long>(adj.nnz()));

    // 1. PageRank.
    const PageRankResult pr = pageRank(adj);
    int top = 0;
    for (int v = 1; v < adj.rows(); ++v) {
        if (pr.rank[v] > pr.rank[top])
            top = v;
    }
    std::printf("PageRank: converged in %d iterations; top vertex "
                "%d (rank %.4f)\n",
                pr.iterations, top, pr.rank[top]);

    // 2. BFS from the top-ranked vertex.
    const BfsResult bfs = bfsSpmspv(adj, top);
    int reached = 0;
    for (int lvl : bfs.level)
        reached += lvl >= 0 ? 1 : 0;
    std::printf("BFS from %d: reached %d vertices in %d levels\n",
                top, reached, bfs.iterations);

    // 3. Triangles.
    const TriangleCount tri = countTriangles(adj);
    std::printf("Triangles: %lld\n\n",
                static_cast<long long>(tri.triangles));

    // STC budget of the whole pipeline.
    const MachineConfig cfg = MachineConfig::fp64();
    const CsrMatrix pt = transitionTranspose(adj);
    const BbcMatrix pt_bbc = BbcMatrix::fromCsr(pt);
    const CsrMatrix adj_t = transposeCsr(adj);
    const BbcMatrix adj_t_bbc = BbcMatrix::fromCsr(adj_t);
    const CsrMatrix l = lowerTriangular(symmetrize(adj));
    const BbcMatrix l_bbc = BbcMatrix::fromCsr(l);

    TextTable t("Pipeline cycle budget per STC");
    t.setHeader({"STC", "PageRank (SpMV x" +
                     std::to_string(pr.iterations) + ")",
                 "BFS (SpMSpV)", "Triangles (SpGEMM)", "total"});
    for (const auto &name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        const auto model = makeStcModel(name, cfg);

        RunResult pr_run = runSpmv(*model, pt_bbc);
        pr_run.scale(static_cast<std::uint64_t>(pr.iterations));

        RunResult bfs_run;
        for (const auto &frontier : bfs.frontiers)
            bfs_run.merge(runSpmspv(*model, adj_t_bbc, frontier));

        const RunResult tri_run = runSpgemm(*model, l_bbc, l_bbc);

        t.addRow({name, fmtCount(pr_run.cycles),
                  fmtCount(bfs_run.cycles), fmtCount(tri_run.cycles),
                  fmtCount(pr_run.cycles + bfs_run.cycles +
                           tri_run.cycles)});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}
