/**
 * @file
 * Quickstart: build a sparse matrix, encode it in the BBC format,
 * verify the encoding numerically, and compare SpMV on Uni-STC
 * against RM-STC and DS-STC.
 *
 * Run:  ./build/examples/quickstart [path/to/matrix.mtx]
 * Without an argument a banded FEM-style matrix is generated.
 */

#include <cstdio>

#include "bbc/bbc_matrix.hh"
#include "common/table.hh"
#include "corpus/generators.hh"
#include "kernels/reference.hh"
#include "runner/spmv_runner.hh"
#include "runner/verify.hh"
#include "sparse/dense.hh"
#include "sparse/io.hh"
#include "stc/registry.hh"

using namespace unistc;

int
main(int argc, char **argv)
{
    // 1. Obtain a sparse matrix: load Matrix Market or generate.
    CsrMatrix a;
    if (argc > 1) {
        std::printf("Loading %s ...\n", argv[1]);
        a = readMatrixMarketFile(argv[1]);
    } else {
        a = genBanded(1024, 24, 0.4, /*seed=*/7);
    }
    std::printf("Matrix: %d x %d, %lld nonzeros (density %.4f)\n",
                a.rows(), a.cols(),
                static_cast<long long>(a.nnz()), a.density());

    // 2. Encode in BBC — the one-time software encoding the paper's
    //    SIV-D describes. The encoding is exact.
    const BbcMatrix bbc = BbcMatrix::fromCsr(a);
    std::printf("BBC: %lld blocks, %.1f nonzeros per block, "
                "%s (CSR: %s)\n",
                static_cast<long long>(bbc.numBlocks()),
                bbc.nnzPerBlock(),
                fmtBytes(bbc.storageBytes()).c_str(),
                fmtBytes(a.storageBytes()).c_str());

    // 3. Verify the BBC dataflow numerically against the CSR
    //    reference kernels.
    std::printf("Numeric verification of all four kernels: %s\n\n",
                verifyAllKernels(a, 42) ? "PASS" : "FAIL");

    // 4. Simulate SpMV (y = A x) on three sparse tensor cores.
    const MachineConfig cfg = MachineConfig::fp64();
    TextTable t("SpMV on 64 MAC @ FP64");
    t.setHeader({"STC", "cycles", "MAC util", "energy", "time @1.5GHz"});
    std::uint64_t ds_cycles = 0;
    for (const auto &name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        const auto model = makeStcModel(name, cfg);
        const RunResult r = runSpmv(*model, bbc);
        if (model->name() == "DS-STC")
            ds_cycles = r.cycles;
        t.addRow({name, fmtCount(r.cycles),
                  fmtPercent(r.utilisation()),
                  fmtEnergyPj(r.energy.total()),
                  fmtDouble(r.timeNs(cfg.freqGhz) / 1000.0, 2) +
                      " us"});
    }
    std::fputs(t.render().c_str(), stdout);

    const auto uni = makeStcModel("Uni-STC", cfg);
    const RunResult r = runSpmv(*uni, bbc);
    std::printf("\nUni-STC speedup over DS-STC: %.2fx\n",
                static_cast<double>(ds_cycles) / r.cycles);
    return 0;
}
