/**
 * @file
 * Fig. 22 — Energy Efficiency Density (EED = speedup x energy
 * reduction / area overhead, normalised to DS-STC) for Uni-STC with
 * 4, 8 and 16 DPGs across the four kernels. The paper's shape: EED
 * for SpMV/SpMSpV drifts DOWN as DPGs grow (only ~1.1x below DPG=4
 * at DPG=8), while SpMM/SpGEMM EED rises (DPG=8 ~1.37x above DPG=4
 * and close to DPG=16) — making 8 DPGs the balanced default.
 */

#include <map>

#include "bench_common.hh"
#include "corpus/representative.hh"
#include "corpus/suite.hh"
#include "sim/area.hh"
#include "unistc/uni_stc.hh"

using namespace unistc;
using unistc::bench::Prepared;

int
main(int, char **)
{
    auto suite = syntheticSuite(1);
    for (auto &nm : representativeMatrices())
        suite.push_back(std::move(nm));

    const double ds_area = AreaModel::dsStcOverheadMm2();

    TextTable t("Fig. 22: EED normalised to DS-STC "
                "(speedup x energy reduction / area overhead)");
    t.setHeader({"Kernel", "DS-STC", "RM-STC", "Uni-STC(4)",
                 "Uni-STC(8)", "Uni-STC(16)"});

    // One five-model lineup — DS, RM and the three Uni-STC DPG
    // variants — sharing each (kernel, matrix) task stream.
    const auto ds = makeStcModel("DS-STC", MachineConfig::fp64());
    const auto rm = makeStcModel("RM-STC", MachineConfig::fp64());
    const UniStc uni4(MachineConfig::fp64WithDpgs(4));
    const UniStc uni8(MachineConfig::fp64WithDpgs(8));
    const UniStc uni16(MachineConfig::fp64WithDpgs(16));
    const std::vector<const StcModel *> lineup = {
        ds.get(), rm.get(), &uni4, &uni8, &uni16};
    const std::vector<int> dpg_list = {4, 8, 16};

    std::map<std::string, std::map<int, double>> uni_eed;
    for (const Kernel kernel : allKernels()) {
        GeoMean rm_eff;
        std::map<int, GeoMean> uni_eff;
        for (const auto &nm : suite) {
            const Prepared p(nm.name, nm.matrix);
            const std::vector<RunResult> rs =
                bench::runKernelLineup(kernel, lineup, p);
            const RunResult &rd = rs[0];
            if (rd.cycles == 0)
                continue;
            rm_eff.add(compare(rd, rs[1]).energyEfficiency);
            for (std::size_t k = 0; k < dpg_list.size(); ++k) {
                uni_eff[dpg_list[k]].add(
                    compare(rd, rs[2 + k]).energyEfficiency);
            }
        }
        const double rm_eed = rm_eff.value() /
            (AreaModel::rmStcOverheadMm2() / ds_area);
        std::vector<std::string> row = {toString(kernel),
                                        fmtRatio(1.0),
                                        fmtRatio(rm_eed)};
        for (int dpgs : {4, 8, 16}) {
            const double eed = uni_eff[dpgs].value() /
                (AreaModel::uniStcOverheadMm2(dpgs) / ds_area);
            uni_eed[toString(kernel)][dpgs] = eed;
            row.push_back(fmtRatio(eed));
        }
        t.addRow(row);
    }
    driver::report(t.render());

    driver::reportf("\nDPG sensitivity (Uni-STC(8) / Uni-STC(4)):\n");
    for (const auto &[kernel, by_dpg] : uni_eed) {
        driver::reportf("  %-7s %.2fx\n", kernel.c_str(),
                        by_dpg.at(8) / by_dpg.at(4));
    }
    driver::reportf("Paper reference: SpMM/SpGEMM EED grows ~1.37x "
                    "from 4 to 8 DPGs and saturates toward 16; "
                    "SpMV/SpMSpV shrinks slightly (~1.1x).\n");
    return 0;
}
