/**
 * @file
 * Table IV — trade-offs of the T3 task size (2x2x2 vs 4x4x4 vs
 * 8x8x8): per-task cycle count, DPGs required to saturate the SDPU,
 * and the network scale to route tiles and nonzeros. The analytic
 * rows reproduce the paper's table; the measured column adds the
 * empirically observed DPG demand on random blocks, justifying the
 * 4x4x4 design point.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace unistc;

namespace
{

/**
 * Average intermediate products per t x t x t tile task on random
 * blocks of the given density (the quantity that determines how many
 * DPGs the SDPU needs to stay saturated).
 */
double
avgTileProducts(int t, double density, int trials)
{
    Rng rng(55);
    double total = 0.0;
    std::int64_t tasks = 0;
    const int tiles = kBlockSize / t;
    for (int trial = 0; trial < trials; ++trial) {
        const BlockPattern a = BlockPattern::random(rng, density);
        const BlockPattern b = BlockPattern::random(rng, density);
        for (int i = 0; i < tiles; ++i) {
            for (int j = 0; j < tiles; ++j) {
                for (int k = 0; k < tiles; ++k) {
                    int products = 0;
                    for (int r = 0; r < t; ++r) {
                        for (int c = 0; c < t; ++c) {
                            for (int kk = 0; kk < t; ++kk) {
                                products +=
                                    (a.test(i * t + r, k * t + kk) &&
                                     b.test(k * t + kk, j * t + c))
                                    ? 1
                                    : 0;
                            }
                        }
                    }
                    if (products > 0) {
                        total += products;
                        ++tasks;
                    }
                }
            }
        }
    }
    return tasks ? total / static_cast<double>(tasks) : 0.0;
}

} // namespace

int
main(int, char **)
{
    TextTable t("Table IV: T3 task-size trade-offs (64-MAC SDPU)");
    t.setHeader({"Task size", "#Cycles", "#DPGs to saturate",
                 "tile net", "nonzero net", "measured avg prod/task "
                 "(d=0.1/0.3)"});

    struct Row
    {
        int t;
        const char *cycles;
        const char *dpgs;
        const char *tile_net;
        const char *nz_net;
    };
    const Row rows[] = {
        {2, "1", "32-64 (high)", "64 x #DPGs (high)", "4x4"},
        {4, "1", "8-16", "16 x #DPGs", "16x16"},
        {8, ">=2 (high)", "2-4 (low)", "4 x #DPGs", "64x64 (high)"},
    };

    for (const Row &row : rows) {
        const double p1 = avgTileProducts(row.t, 0.1, 60);
        const double p3 = avgTileProducts(row.t, 0.3, 60);
        // DPGs needed = 64-slot SDPU / average task payload.
        char measured[96];
        std::snprintf(measured, sizeof(measured),
                      "%.1f / %.1f -> %.0f / %.0f DPGs", p1, p3,
                      p1 > 0 ? 64.0 / p1 : 0.0,
                      p3 > 0 ? 64.0 / p3 : 0.0);
        t.addRow({std::to_string(row.t) + "x" +
                      std::to_string(row.t) + "x" +
                      std::to_string(row.t),
                  row.cycles, row.dpgs, row.tile_net, row.nz_net,
                  measured});
    }
    driver::report(t.render());
    driver::reportf("\n4x4x4 balances DPG count against routing scale "
                    "and single-cycle timing — the Uni-STC design "
                    "point.\n");
    return 0;
}
