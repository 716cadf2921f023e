/**
 * @file
 * Ablation (§IV-C-2): dynamic DPG power gating. The TMS power-gates
 * redundant DPGs and their datapaths each cycle; the paper claims
 * energy savings of up to 2.83x versus an always-on design. This
 * bench finalizes the same Uni-STC runs under both energy policies.
 */

#include <algorithm>

#include "bench_common.hh"
#include "corpus/representative.hh"
#include "unistc/uni_stc.hh"

using namespace unistc;
using unistc::bench::Prepared;

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const EnergyModel em;

    TextTable t("Ablation: dynamic DPG gating vs always-on "
                "(Uni-STC energy)");
    t.setHeader({"Matrix", "kernel", "avg active DPGs",
                 "gated energy", "always-on energy", "saving",
                 "gated-path saving"});

    double max_saving = 0.0;
    double max_path_saving = 0.0;
    for (const auto &nm : representativeMatrices()) {
        const Prepared p(nm.name, nm.matrix);
        for (const Kernel kernel : {Kernel::SpMV, Kernel::SpGEMM}) {
            const UniStc uni(cfg);
            RunResult gated = bench::runKernel(kernel, uni, p, em);

            // Re-finalize the identical run with gating disabled.
            RunResult always = gated;
            NetworkConfig net = uni.network();
            net.dynamicGating = false;
            em.finalize(cfg, net, always);

            const double saving =
                always.energy.total() / gated.energy.total();
            // The paper's "up to 2.83x" claim targets the gated
            // datapaths themselves (C-write network + per-lane
            // control), not total energy.
            const double path_saving =
                (always.energy.writeC + always.energy.schedule) /
                (gated.energy.writeC + gated.energy.schedule);
            max_saving = std::max(max_saving, saving);
            max_path_saving = std::max(max_path_saving, path_saving);
            t.addRow({nm.name, toString(kernel),
                      fmtDouble(gated.avgActiveDpgs(), 2),
                      fmtEnergyPj(gated.energy.total()),
                      fmtEnergyPj(always.energy.total()),
                      fmtRatio(saving), fmtRatio(path_saving)});
        }
    }
    driver::report(t.render());
    driver::reportf("\nLargest observed saving: %.2fx total, %.2fx on "
                    "the gated datapaths (paper: up to 2.83x on the "
                    "gated paths).\n",
                    max_saving, max_path_saving);
    return 0;
}
