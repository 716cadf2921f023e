/**
 * @file
 * Fig. 19 — data traffic and average network scale when writing
 * matrix C during SpGEMM (C = A^2) on the eight representative
 * matrices. The paper attributes Uni-STC's ~6.5x write-C energy
 * saving to 2.75x less SDPU traffic (pre-merged partials) times a
 * 2.36x smaller dynamic network scale.
 */

#include "bench_common.hh"
#include "corpus/representative.hh"

using namespace unistc;
using unistc::bench::Prepared;

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();

    TextTable t("Fig. 19: C-write traffic and average active "
                "network scale (16x16-network units)");
    t.setHeader({"Matrix", "STC", "C writes", "C bytes",
                 "avg net scale"});

    // DS / RM / Uni share one SpGEMM task stream per matrix.
    const std::vector<std::string> names = {"DS-STC", "RM-STC",
                                            "Uni-STC"};
    std::vector<StcModelPtr> owned;
    std::vector<const StcModel *> lineup;
    for (const auto &name : names) {
        owned.push_back(makeStcModel(name, cfg));
        lineup.push_back(owned.back().get());
    }

    double ds_traffic = 0.0, uni_traffic = 0.0;
    for (const auto &nm : representativeMatrices()) {
        const Prepared p(nm.name, nm.matrix);
        const std::vector<RunResult> rs =
            bench::runKernelLineup(Kernel::SpGEMM, lineup, p);
        for (std::size_t mi = 0; mi < names.size(); ++mi) {
            const RunResult &r = rs[mi];
            const NetworkConfig net = lineup[mi]->network();
            const double scale = net.dynamicGating
                ? r.avgCNetScale()
                : static_cast<double>(net.cNetUnits);
            t.addRow({nm.name, names[mi],
                      fmtCount(r.traffic.writesC),
                      fmtBytes(r.traffic.writesC *
                               cfg.bytesPerValue()),
                      fmtDouble(scale, 2)});
            if (names[mi] == "DS-STC")
                ds_traffic += static_cast<double>(r.traffic.writesC);
            else if (names[mi] == "Uni-STC")
                uni_traffic +=
                    static_cast<double>(r.traffic.writesC);
        }
        t.addSeparator();
    }
    driver::report(t.render());
    driver::reportf("\nC-write traffic reduction, Uni-STC vs DS-STC: "
                    "%.2fx (paper: 2.75x from SDPU pre-merging).\n",
                    ds_traffic / uni_traffic);
    return 0;
}
