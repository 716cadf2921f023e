/**
 * @file
 * Ablation (§IV-A-2 ④): Dot-product-queue fill order. The Z-shaped
 * fill bounds operand broadcast at 5 adjacent multipliers for A and
 * 9 for B; the paper reports that the alternative N-shaped order
 * "was tested and found to be inferior for most matrices". This
 * bench measures the broadcast ranges and forwarding hit rates of
 * all four orders over random tiles at several densities.
 */

#include <algorithm>

#include "bench_common.hh"
#include "common/bitops.hh"
#include "unistc/dpg.hh"

using namespace unistc;

int
main(int, char **)
{
    const int trials = 500;
    TextTable t("Ablation: DPG fill order (random 4x4 tile pairs)");
    t.setHeader({"tile density", "order", "max A range",
                 "max B range", "avg A range", "avg B range"});

    for (double density : {0.3, 0.5, 0.8, 1.0}) {
        for (const FillOrder order :
             {FillOrder::ZShaped, FillOrder::NShaped,
              FillOrder::RowMajor, FillOrder::ColMajor}) {
            Rng rng(4242); // identical tiles for every order
            int max_a = 0, max_b = 0;
            double sum_a = 0, sum_b = 0;
            int n = 0;
            for (int i = 0; i < trials; ++i) {
                std::uint16_t at = 0, bt = 0;
                for (int bit = 0; bit < 16; ++bit) {
                    if (rng.nextBool(density))
                        at = setBit(at, bit);
                    if (rng.nextBool(density))
                        bt = setBit(bt, bit);
                }
                if (!at || !bt)
                    continue;
                const auto tasks = expandTileTask(at, bt, 4, order);
                if (tasks.empty())
                    continue;
                const BroadcastRange r = broadcastRange(tasks);
                max_a = std::max(max_a, r.maxRangeA);
                max_b = std::max(max_b, r.maxRangeB);
                sum_a += r.maxRangeA;
                sum_b += r.maxRangeB;
                ++n;
            }
            if (!n)
                continue;
            t.addRow({fmtPercent(density, 0), toString(order),
                      std::to_string(max_a), std::to_string(max_b),
                      fmtDouble(sum_a / n), fmtDouble(sum_b / n)});
        }
        t.addSeparator();
    }
    driver::report(t.render());
    driver::reportf("\nPaper bounds under the Z order: A <= 5 adjacent "
                    "multipliers, B <= 9.\n");
    return 0;
}
