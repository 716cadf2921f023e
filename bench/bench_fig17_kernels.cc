/**
 * @file
 * Fig. 17 — speedup, energy reduction and energy efficiency of
 * RM-STC and Uni-STC normalised to DS-STC on the eight
 * representative matrices across all four kernels (64 MAC@FP64),
 * plus ResNet-50 and Transformer inference layers on DLMC-style
 * weights (128 MAC@FP32).
 */

#include "apps/dnn/dnn_driver.hh"
#include "bench_common.hh"
#include "corpus/representative.hh"

using namespace unistc;
using unistc::bench::Prepared;

namespace
{

void
printKernelSection(Kernel kernel,
                   const std::vector<Prepared> &matrices,
                   const MachineConfig &cfg)
{
    TextTable t(std::string("Fig. 17 [") + toString(kernel) +
                "]: normalised to DS-STC (64 MAC@FP64)");
    t.setHeader({"Matrix", "RM-STC P", "RM-STC E", "RM-STC ExP",
                 "Uni-STC P", "Uni-STC E", "Uni-STC ExP"});
    ComparisonRollup rm_roll, uni_roll;

    // DS / RM / Uni share one task stream per matrix.
    const auto ds = makeStcModel("DS-STC", cfg);
    const auto rm = makeStcModel("RM-STC", cfg);
    const auto uni = makeStcModel("Uni-STC", cfg);
    const std::vector<const StcModel *> lineup = {ds.get(), rm.get(),
                                                  uni.get()};
    for (const auto &p : matrices) {
        const std::vector<RunResult> rs =
            bench::runKernelLineup(kernel, lineup, p);
        const Comparison crm = compare(rs[0], rs[1]);
        const Comparison cuni = compare(rs[0], rs[2]);
        rm_roll.add(crm);
        uni_roll.add(cuni);
        t.addRow({p.name, fmtRatio(crm.speedup),
                  fmtRatio(crm.energyReduction),
                  fmtRatio(crm.energyEfficiency),
                  fmtRatio(cuni.speedup),
                  fmtRatio(cuni.energyReduction),
                  fmtRatio(cuni.energyEfficiency)});
    }
    t.addSeparator();
    t.addRow({"geomean", fmtRatio(rm_roll.speedup.value()),
              fmtRatio(rm_roll.energyReduction.value()),
              fmtRatio(rm_roll.energyEfficiency.value()),
              fmtRatio(uni_roll.speedup.value()),
              fmtRatio(uni_roll.energyReduction.value()),
              fmtRatio(uni_roll.energyEfficiency.value())});
    driver::report(t.render());
    driver::reportf("\n");
}

void
printDnnSection(const std::string &model_name,
                const std::vector<DnnLayer> &layers,
                double weight_sparsity, ActivationMode mode)
{
    const MachineConfig cfg = MachineConfig::fp32();
    TextTable t("Fig. 17 [DNN " + model_name + ", weights " +
                fmtPercent(weight_sparsity, 0) +
                " sparse]: normalised to DS-STC (128 MAC@FP32)");
    t.setHeader({"Layer", "RM-STC P", "RM-STC ExP", "Uni-STC P",
                 "Uni-STC ExP"});
    ComparisonRollup rm_roll, uni_roll;
    std::uint64_t seed = 1717;
    for (const auto &layer : layers) {
        const auto ds = makeStcModel("DS-STC", cfg);
        const auto rm = makeStcModel("RM-STC", cfg);
        const auto uni = makeStcModel("Uni-STC", cfg);
        const RunResult rd = runDnnLayer(*ds, layer, weight_sparsity,
                                         mode, 0.5, seed);
        const RunResult rr = runDnnLayer(*rm, layer, weight_sparsity,
                                         mode, 0.5, seed);
        const RunResult ru = runDnnLayer(*uni, layer,
                                         weight_sparsity, mode, 0.5,
                                         seed);
        const Comparison crm = compare(rd, rr);
        const Comparison cuni = compare(rd, ru);
        rm_roll.add(crm);
        uni_roll.add(cuni);
        t.addRow({layer.name, fmtRatio(crm.speedup),
                  fmtRatio(crm.energyEfficiency),
                  fmtRatio(cuni.speedup),
                  fmtRatio(cuni.energyEfficiency)});
        ++seed;
    }
    t.addSeparator();
    t.addRow({"geomean", fmtRatio(rm_roll.speedup.value()),
              fmtRatio(rm_roll.energyEfficiency.value()),
              fmtRatio(uni_roll.speedup.value()),
              fmtRatio(uni_roll.energyEfficiency.value())});
    driver::report(t.render());
    driver::reportf("\n");
}

} // namespace

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();

    std::vector<Prepared> matrices;
    for (const auto &nm : representativeMatrices())
        matrices.emplace_back(nm.name, nm.matrix);

    for (const Kernel kernel : allKernels())
        printKernelSection(kernel, matrices, cfg);

    printDnnSection("ResNet-50", resnet50Layers(), 0.7,
                    ActivationMode::Sparse);
    printDnnSection("Transformer", transformerLayers(), 0.7,
                    ActivationMode::Dense);
    printDnnSection("Transformer", transformerLayers(), 0.98,
                    ActivationMode::Dense);

    driver::reportf("Paper reference (geomeans over the set): SpMV "
                    "5.21x/2.74x, SpMSpV 5.25x/5.50x speedup over "
                    "DS/RM; DNN speedup 1.43x over RM-STC.\n");
    return 0;
}
