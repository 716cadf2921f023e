/**
 * @file
 * GNN layer example (Table II: GNNs combine SpMM and SpGEMM).
 *
 * Simulates one GraphSAGE-style propagation layer on a power-law
 * graph: feature aggregation H' = A x H is SpMM (sparse adjacency x
 * dense features), and two-hop neighbourhood construction A2 = A x A
 * is SpGEMM — both on each sparse tensor core.
 */

#include <cstdio>

#include "bbc/bbc_matrix.hh"
#include "common/table.hh"
#include "corpus/generators.hh"
#include "kernels/reference.hh"
#include "runner/spgemm_runner.hh"
#include "runner/spmm_runner.hh"
#include "stc/registry.hh"

using namespace unistc;

int
main()
{
    const int nodes = 2048;
    const int features = 64;
    const CsrMatrix adj = genPowerLaw(nodes, 12.0, 2.2, 99);
    std::printf("Graph: %d nodes, %lld edges (power-law degrees)\n",
                nodes, static_cast<long long>(adj.nnz()));

    const BbcMatrix adj_bbc = BbcMatrix::fromCsr(adj);
    const CsrMatrix two_hop = spgemmSymbolic(adj, adj);
    std::printf("Two-hop graph: %lld edges\n\n",
                static_cast<long long>(two_hop.nnz()));

    const MachineConfig cfg = MachineConfig::fp64();
    TextTable t("GNN layer kernels per STC");
    t.setHeader({"STC", "SpMM cycles (AxH, H " +
                     std::to_string(features) + "-wide)",
                 "SpGEMM cycles (AxA)", "total energy"});

    std::uint64_t ds_total = 0;
    std::uint64_t uni_total = 0;
    for (const auto &name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        const auto model = makeStcModel(name, cfg);
        const RunResult spmm = runSpmm(*model, adj_bbc, features);
        const RunResult spgemm =
            runSpgemm(*model, adj_bbc, adj_bbc);
        const std::uint64_t total = spmm.cycles + spgemm.cycles;
        if (model->name() == "DS-STC")
            ds_total = total;
        if (model->name() == "Uni-STC")
            uni_total = total;
        t.addRow({name, fmtCount(spmm.cycles),
                  fmtCount(spgemm.cycles),
                  fmtEnergyPj(spmm.energy.total() +
                              spgemm.energy.total())});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\nLayer-level Uni-STC speedup over DS-STC: %.2fx\n",
                static_cast<double>(ds_total) / uni_total);
    return 0;
}
