/**
 * @file
 * Fig. 5 — per-cycle MAC-utilisation breakdown (four 25%-wide
 * buckets) for SpGEMM C = A^2 on the eight representative matrices,
 * comparing NV-DTC, DS-STC, RM-STC and Uni-STC, plus the aggregate
 * low-utilisation statistics §III quotes (84.34% of NV-DTC cycles
 * below 25%; 61.68% / 62.78% of DS/RM cycles below 50%; 15.82% for
 * Uni-STC).
 */

#include "bench_common.hh"
#include "corpus/representative.hh"

using namespace unistc;
using unistc::bench::Prepared;

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();
    const std::vector<std::string> models = {"NV-DTC", "DS-STC",
                                             "RM-STC", "Uni-STC"};
    // One shared-stream lineup: each matrix's SpGEMM task stream is
    // enumerated once and fanned out to all four architectures.
    std::vector<StcModelPtr> owned;
    std::vector<const StcModel *> lineup;
    for (const auto &name : models) {
        owned.push_back(makeStcModel(name, cfg));
        lineup.push_back(owned.back().get());
    }

    TextTable t("Fig. 5: SpGEMM (C = A^2) cycle share per MAC "
                "utilisation bucket");
    t.setHeader({"Matrix", "STC", "0-25%", "25-50%", "50-75%",
                 "75-100%", "cycles"});

    std::vector<Histogram> agg(models.size());
    for (const auto &nm : representativeMatrices()) {
        const Prepared p(nm.name, nm.matrix);
        const std::vector<RunResult> rs =
            bench::runKernelLineup(Kernel::SpGEMM, lineup, p);
        for (std::size_t mi = 0; mi < models.size(); ++mi) {
            const RunResult &r = rs[mi];
            t.addRow({nm.name, models[mi],
                      fmtPercent(r.utilHist.bucketFraction(0)),
                      fmtPercent(r.utilHist.bucketFraction(1)),
                      fmtPercent(r.utilHist.bucketFraction(2)),
                      fmtPercent(r.utilHist.bucketFraction(3)),
                      fmtCount(r.cycles)});
            agg[mi].merge(r.utilHist);
        }
        t.addSeparator();
    }
    driver::report(t.render());

    driver::reportf("\nAggregate over the eight matrices:\n");
    for (std::size_t mi = 0; mi < models.size(); ++mi) {
        const double below25 = agg[mi].bucketFraction(0);
        const double below50 = below25 + agg[mi].bucketFraction(1);
        driver::reportf("  %-8s cycles <25%%: %6.2f%%   cycles <50%%: "
                        "%6.2f%%\n",
                        models[mi].c_str(), below25 * 100.0,
                        below50 * 100.0);
    }
    driver::reportf("\nPaper reference: NV-DTC 84.34%% of cycles "
                    "<25%%; DS-STC 61.68%% and RM-STC 62.78%% <50%%; "
                    "Uni-STC 15.82%% <50%%.\n");
    return 0;
}
