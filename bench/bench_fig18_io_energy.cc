/**
 * @file
 * Fig. 18 — I/O energy breakdown (reading A, reading B, writing C)
 * of SpGEMM C = A^2 on the eight representative matrices for DS-STC,
 * RM-STC and Uni-STC. The paper's claims: Uni-STC has the lowest
 * total, cuts the write-C energy by ~6.5x vs DS-STC, and its three
 * internal operations end up balanced.
 */

#include "bench_common.hh"
#include "corpus/representative.hh"

using namespace unistc;
using unistc::bench::Prepared;

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();

    TextTable t("Fig. 18: SpGEMM (C = A^2) I/O energy breakdown");
    t.setHeader({"Matrix", "STC", "read A", "read B", "write C",
                 "sched", "compute", "total"});

    // DS / RM / Uni share one SpGEMM task stream per matrix.
    const std::vector<std::string> names = {"DS-STC", "RM-STC",
                                            "Uni-STC"};
    std::vector<StcModelPtr> owned;
    std::vector<const StcModel *> lineup;
    for (const auto &name : names) {
        owned.push_back(makeStcModel(name, cfg));
        lineup.push_back(owned.back().get());
    }

    double ds_writec = 0.0, uni_writec = 0.0;
    double ds_total = 0.0, rm_total = 0.0, uni_total = 0.0;
    for (const auto &nm : representativeMatrices()) {
        const Prepared p(nm.name, nm.matrix);
        const std::vector<RunResult> rs =
            bench::runKernelLineup(Kernel::SpGEMM, lineup, p);
        for (std::size_t mi = 0; mi < names.size(); ++mi) {
            const EnergyBreakdown &e = rs[mi].energy;
            t.addRow({nm.name, names[mi], fmtEnergyPj(e.fetchA),
                      fmtEnergyPj(e.fetchB), fmtEnergyPj(e.writeC),
                      fmtEnergyPj(e.schedule),
                      fmtEnergyPj(e.compute),
                      fmtEnergyPj(e.total())});
            if (names[mi] == "DS-STC") {
                ds_writec += e.writeC;
                ds_total += e.total();
            } else if (names[mi] == "RM-STC") {
                rm_total += e.total();
            } else {
                uni_writec += e.writeC;
                uni_total += e.total();
            }
        }
        t.addSeparator();
    }
    driver::report(t.render());

    driver::reportf("\nAggregate over the eight matrices:\n");
    driver::reportf("  write-C energy reduction, Uni-STC vs DS-STC: "
                    "%.2fx (paper: ~6.5x)\n",
                    ds_writec / uni_writec);
    driver::reportf("  total energy: DS %.3g  RM %.3g  Uni %.3g pJ "
                    "(Uni-STC lowest: %s)\n",
                    ds_total, rm_total, uni_total,
                    (uni_total < ds_total && uni_total < rm_total)
                        ? "yes"
                        : "NO");
    return 0;
}
