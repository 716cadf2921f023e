#include "corpus/dlmc.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sparse/convert.hh"

namespace unistc
{

CsrMatrix
genPrunedWeights(int rows, int cols, double sparsity,
                 std::uint64_t seed)
{
    UNISTC_ASSERT(sparsity >= 0.0 && sparsity < 1.0,
                  "sparsity out of range");
    Rng rng(seed);
    const double keep = 1.0 - sparsity;
    CooMatrix coo(rows, cols);
    for (int r = 0; r < rows; ++r) {
        // Row population ~ Binomial(cols, keep), clamped to >= 1.
        double expect = keep * cols;
        int k = static_cast<int>(std::floor(expect));
        if (rng.nextBool(expect - k))
            ++k;
        k = std::clamp(k, 1, cols);
        for (int c : rng.sampleDistinct(cols, k)) {
            // Magnitude-pruned survivors are bounded away from zero.
            const double mag = 0.05 + std::fabs(rng.nextGaussian());
            coo.add(r, c, rng.nextBool(0.5) ? mag : -mag);
        }
    }
    return cooToCsr(std::move(coo));
}

CsrMatrix
genStructured24(int rows, int cols, std::uint64_t seed)
{
    UNISTC_ASSERT(cols % 4 == 0,
                  "2:4 structure needs cols divisible by 4");
    Rng rng(seed);
    CooMatrix coo(rows, cols);
    for (int r = 0; r < rows; ++r) {
        for (int g = 0; g < cols; g += 4) {
            // Exactly two survivors per 4-wide group.
            const auto keep = rng.sampleDistinct(4, 2);
            for (int k : keep) {
                const double mag = 0.05 + std::fabs(rng.nextGaussian());
                coo.add(r, g + k, rng.nextBool(0.5) ? mag : -mag);
            }
        }
    }
    return cooToCsr(std::move(coo));
}

} // namespace unistc
