/**
 * @file
 * Table VI — T3/T4 task geometry of every evaluated STC at both MAC
 * configurations (128@FP32 / 64@FP64).
 */

#include "bench_common.hh"

using namespace unistc;

int
main(int, char **)
{
    TextTable t("Table VI: STC task geometries "
                "(MMA task 16x16x16; 128 MAC@FP32 or 64 MAC@FP64)");
    t.setHeader({"STC", "T3 size @FP32 (MxNxK)", "T3 size @FP64",
                 "T4 size"});
    t.addRow({"GAMMA", "16x8x1", "16x4x1", "= T3"});
    t.addRow({"SIGMA", "1x8x16", "1x4x16", "= T3"});
    t.addRow({"Trapezoid (TrIP)", "16x4x2", "16x2x2", "= T3"});
    t.addRow({"Trapezoid (TrGT)", "16x4x2", "16x4x1", "= T3"});
    t.addRow({"Trapezoid (TrGS)", "8x4x4", "8x4x2", "= T3"});
    t.addRow({"NV-DTC", "8x4x4", "4x4x4", "= T3"});
    t.addRow({"DS-STC", "8x16x1", "8x8x1", "= T3"});
    t.addRow({"RM-STC", "16x4x2", "8x4x2", "= T3"});
    t.addRow({"Uni-STC (this work)", "4x4x4 (x2 tasks)", "4x4x4",
              "1x1x4"});
    driver::report(t.render());

    driver::reportf("\nModels instantiated from the registry:\n");
    for (const auto &name : allModelNames()) {
        const auto m = makeStcModel(name, MachineConfig::fp64());
        const NetworkConfig net = m->network();
        driver::reportf("  %-10s A/B/C network energy factors: "
                        "%.2f / %.2f / %.2f%s\n",
                        m->name().c_str(), net.aFactor, net.bFactor,
                        net.cFactor,
                        net.dynamicGating ? "  (DPG power gating)"
                                          : "");
    }
    return 0;
}
