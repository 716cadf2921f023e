/**
 * @file
 * Ablation (§IV-A-1 ②): the adaptive intra-layer task order. The TMS
 * "dynamically selects a column-major order when nonzero rows
 * outnumber nonzero columns, and a row-major order otherwise". This
 * bench compares Uni-STC with the adaptive rule against fixed
 * row-major order, and against the alternative TMS batch orderings,
 * on the representative matrices (cycles and operand traffic).
 */

#include "bench_common.hh"
#include "corpus/representative.hh"
#include "runner/spgemm_runner.hh"
#include "unistc/uni_stc.hh"

using namespace unistc;
using unistc::bench::Prepared;

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();

    struct Variant
    {
        const char *name;
        TaskOrdering ordering;
        bool adaptive;
    };
    const Variant variants[] = {
        {"outer-product + adaptive", TaskOrdering::OuterProduct,
         true},
        {"outer-product, row-major", TaskOrdering::OuterProduct,
         false},
        {"dot-product", TaskOrdering::DotProduct, false},
        {"row-row", TaskOrdering::RowRow, false},
    };

    TextTable t("Ablation: TMS ordering variants on Uni-STC "
                "(SpGEMM C = A^2)");
    t.setHeader({"Matrix", "variant", "cycles", "A reads",
                 "B reads", "conflict cycles"});

    std::vector<GeoMean> vs_default(std::size(variants));
    for (const auto &nm : representativeMatrices()) {
        const Prepared p(nm.name, nm.matrix);
        std::uint64_t default_cycles = 0;
        for (std::size_t v = 0; v < std::size(variants); ++v) {
            const UniStc uni(cfg, variants[v].ordering,
                             variants[v].adaptive);
            const RunResult r = runSpgemm(uni, p.bbc, p.bbc);
            if (v == 0)
                default_cycles = r.cycles;
            else if (r.cycles > 0)
                vs_default[v].add(static_cast<double>(r.cycles) /
                                  default_cycles);
            t.addRow({nm.name, variants[v].name, fmtCount(r.cycles),
                      fmtCount(r.traffic.readsA),
                      fmtCount(r.traffic.readsB),
                      fmtCount(r.stallCycles)});
        }
        t.addSeparator();
    }
    driver::report(t.render());

    driver::reportf("\nCycle overhead of alternatives vs the default "
                    "(geomean):\n");
    for (std::size_t v = 1; v < std::size(variants); ++v) {
        driver::reportf("  %-26s %.3fx\n", variants[v].name,
                        vs_default[v].value());
    }
    return 0;
}
