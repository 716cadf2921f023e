/**
 * @file
 * Triangle counting on the STC models: the masked-SpGEMM workload
 * L .* (L x L) on an R-MAT social graph; the dominant kernel (L x L)
 * is simulated per architecture.
 */

#include <cstdio>

#include "apps/graph/triangles.hh"
#include "bbc/bbc_matrix.hh"
#include "common/table.hh"
#include "corpus/generators.hh"
#include "runner/spgemm_runner.hh"
#include "stc/registry.hh"

using namespace unistc;

int
main()
{
    const CsrMatrix adj = genRmat(11, 12, 0.57, 0.19, 0.19, 606);
    const TriangleCount result = countTriangles(adj);
    std::printf("R-MAT graph: %d vertices, %lld directed edges\n",
                adj.rows(), static_cast<long long>(adj.nnz()));
    std::printf("Triangles: %lld (L x L intermediate products: "
                "%lld)\n\n",
                static_cast<long long>(result.triangles),
                static_cast<long long>(result.spgemmFlops));

    // Simulate the dominant kernel L x L on each STC.
    const CsrMatrix l = lowerTriangular(symmetrize(adj));
    const BbcMatrix l_bbc = BbcMatrix::fromCsr(l);
    const MachineConfig cfg = MachineConfig::fp64();

    TextTable t("Triangle counting core kernel (L x L) per STC");
    t.setHeader({"STC", "cycles", "MAC util", "energy"});
    for (const auto &name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        const auto model = makeStcModel(name, cfg);
        const RunResult r = runSpgemm(*model, l_bbc, l_bbc);
        t.addRow({name, fmtCount(r.cycles),
                  fmtPercent(r.utilisation()),
                  fmtEnergyPj(r.energy.total())});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}
