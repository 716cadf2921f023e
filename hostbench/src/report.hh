/**
 * @file
 * What one benchmark run is asked to do and what it reports: the
 * parsed options, named metrics tagged host / sim / count, and the
 * attempted-vs-failed tally every output check feeds.
 */

#ifndef HOSTBENCH_REPORT_HH
#define HOSTBENCH_REPORT_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

namespace hostbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int jobs = 1;              ///< min(4, nproc): the parallel setting.
    std::string serveBin;      ///< unistc_serve executable.
    std::string digestDir;     ///< Committed expected digests.
    bool writeDigests = false; ///< Regenerate them instead of checking.
    std::string outDir;        ///< Chrome traces and runtime files.
};

/** How a metric was obtained. */
enum class Kind
{
    Host,  ///< Host wall time or memory: noisy.
    Sim,   ///< Simulated: repeats exactly for one seed.
    Count, ///< Work counted on the host side: repeats exactly.
};

struct Metric
{
    double value = 0.0;
    std::string unit;
    Kind kind = Kind::Host;
    std::size_t samples = 1;
};

class Report
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit,
        Kind kind, std::size_t samples = 1)
    {
        metrics_[name] = {value, unit, kind, samples};
    }

    const std::map<std::string, Metric> &metrics() const
    {
        return metrics_;
    }

    void attempt(std::size_t n = 1) { attempted_ += n; }

    /** Count @p n failed operations and say why on stderr. */
    void
    fail(std::size_t n, const std::string &why)
    {
        if (n == 0)
            return;
        failed_ += n;
        std::fprintf(stderr, "hostbench: FAILED x%zu: %s\n", n,
                     why.c_str());
    }

    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }

  private:
    std::map<std::string, Metric> metrics_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
};

/** Seconds on the steady clock since an arbitrary epoch. */
double nowSeconds();

/** Peak resident set of this process, in MB. */
double selfPeakRssMb();

} // namespace hostbench

#endif // HOSTBENCH_REPORT_HH
