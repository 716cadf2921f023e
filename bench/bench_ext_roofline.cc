/**
 * @file
 * Extension study: roofline validity check. The paper compares STCs
 * by compute cycles; this bench verifies on which operating points
 * that comparison is safe by pitting Uni-STC's device-level compute
 * time against the kernels' DRAM streaming time, and reports the
 * largest STC-unit count at which each kernel stays compute-bound.
 */

#include <cstdio>

#include "bench_common.hh"
#include "corpus/representative.hh"
#include "kernels/reference.hh"
#include "sim/memory.hh"

using namespace unistc;
using unistc::bench::Prepared;

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const MemoryConfig mem;

    TextTable t("Extension: compute vs DRAM roofline (Uni-STC, "
                "A100-class HBM)");
    t.setHeader({"Matrix", "kernel", "DRAM bytes", "arith. intensity"
                 " (prod/B)", "compute-bound up to"});

    for (const auto &nm : representativeMatrices()) {
        const Prepared p(nm.name, nm.matrix);
        const std::int64_t c_nnz =
            spgemmSymbolic(nm.matrix, nm.matrix).nnz();

        for (const Kernel kernel : allKernels()) {
            const auto uni = makeStcModel("Uni-STC", cfg);
            const RunResult run = bench::runKernel(kernel, *uni, p);
            const DramTraffic traffic = kernelDramTraffic(
                kernel, p.bbc, 64,
                kernel == Kernel::SpGEMM ? &p.bbc : nullptr, c_nnz,
                cfg);

            // Largest unit count that keeps compute >= memory time.
            const double unit_ns = run.timeNs(cfg.freqGhz);
            const double mem_ns =
                static_cast<double>(traffic.total()) /
                mem.bandwidthGBs;
            const int max_units = mem_ns > 0.0
                ? static_cast<int>(unit_ns / mem_ns)
                : mem.stcUnitsPerDevice;

            char bound[48];
            if (max_units >= mem.stcUnitsPerDevice) {
                std::snprintf(bound, sizeof(bound),
                              "full device (432)");
            } else {
                std::snprintf(bound, sizeof(bound), "%d units",
                              std::max(max_units, 0));
            }
            t.addRow({nm.name, toString(kernel),
                      fmtBytes(traffic.total()),
                      fmtDouble(static_cast<double>(run.products) /
                                    traffic.total(),
                                2),
                      bound});
        }
        t.addSeparator();
    }
    driver::report(t.render());
    driver::reportf("\nReading: SpGEMM and dense-B SpMM stay compute-"
                    "bound at device scale; SpMV/SpMSpV become DRAM-"
                    "bound beyond a few units — their figures compare "
                    "STC compute capability, as in the paper.\n");
    return 0;
}
