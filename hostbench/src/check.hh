/**
 * @file
 * Output checks: digests of the simulated counters, the structural
 * product count each run must reproduce, the committed expected
 * digests for the default seed, and the Table VIII error figure.
 */

#ifndef HOSTBENCH_CHECK_HH
#define HOSTBENCH_CHECK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "driver/kernel_run.hh"
#include "runner/report.hh"
#include "sim/result.hh"

namespace hostbench
{

/** Digest of every simulated counter of @p r (energy bit-exact). */
std::uint64_t resultDigest(const unistc::RunResult &r);

/** Digest of a lineup's results, in lineup order. */
std::uint64_t lineupDigest(const std::vector<unistc::RunResult> &rs);

/** Digest of response bytes. */
std::uint64_t textDigest(const std::string &bytes);

/**
 * Effective products @p kernel must perform on @p p, counted from
 * the CSR: nnz(A) for SpMV, nnz(A) restricted to x's nonzero columns
 * for SpMSpV, nnz(A) * bCols for SpMM, sum over A's nonzeros (i, k)
 * of nnz(A row k) for SpGEMM (C = A * A). Every architecture must
 * report exactly this many.
 */
std::uint64_t structuralProducts(unistc::Kernel kernel,
                                 const unistc::driver::Prepared &p,
                                 int bCols = 64);

/** One checked unit: a stable key and its digest. */
struct UnitDigest
{
    std::string key;
    std::uint64_t digest = 0;
};

using DigestList = std::vector<UnitDigest>;

/**
 * Units of @p actual that differ from @p expected at the same
 * position (key or digest), plus every unit present in only one.
 */
std::size_t countMismatches(const DigestList &actual,
                            const DigestList &expected);

/**
 * Load a committed digest file ("seed N" line, then "key hex"
 * lines). False when the file is missing or malformed.
 */
bool loadDigests(const std::string &path, std::uint64_t *seed,
                 DigestList *out);

bool writeDigests(const std::string &path, std::uint64_t seed,
                  const DigestList &list);

/**
 * Table VIII headline error: the mean of |sim / paper - 1| over
 * Uni-STC's geomean speedup (3.35x, 2.21x) and energy efficiency
 * (7.05x, 2.96x) against DS-STC and RM-STC, in percent. The
 * reference is the paper's own simulator, not hardware.
 */
class PaperError
{
  public:
    void add(const unistc::RunResult &ds, const unistc::RunResult &rm,
             const unistc::RunResult &uni);

    std::uint64_t count() const { return dsP_.count(); }

    double pct() const;

  private:
    unistc::GeoMean dsP_, rmP_, dsEp_, rmEp_;
};

} // namespace hostbench

#endif // HOSTBENCH_CHECK_HH
