/**
 * @file
 * Sample statistics the benchmark reports: interpolated percentiles,
 * the highest percentile a sample supports, and open-loop latency
 * accounting.
 */

#ifndef HOSTBENCH_STATS_HH
#define HOSTBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace hostbench
{

/** Linear-interpolated @p p quantile (0..1); 0 for an empty sample. */
double percentile(std::vector<double> values, double p);

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/**
 * The highest of p50, p90, p99 and p99.9 with at least ten of
 * @p n samples beyond it; 0 when even the median has fewer.
 */
double supportedPercentile(std::size_t n);

/** One open-loop request, times in seconds on one clock. */
struct OpenLoopSample
{
    double due = 0.0;  ///< When the schedule said to send it.
    double sent = 0.0; ///< When the generator actually sent it.
    double done = 0.0; ///< When its response arrived.
    bool ok = false;   ///< Answered "ok" with the expected bytes.
};

struct OpenLoopSummary
{
    std::vector<double> latencyMs; ///< done - due, every request.
    std::vector<double> lateMs;    ///< sent - due (generator lag).
    std::size_t sent = 0;
    std::size_t missed = 0; ///< Failed, refused or over the limit.
};

/**
 * Latency is timed from each request's due time, so a stalled
 * generator or server charges its wait to every request queued
 * behind it. A request that did not succeed misses the limit
 * whatever its latency.
 */
OpenLoopSummary summarizeOpenLoop(
    const std::vector<OpenLoopSample> &samples, double limitMs);

/**
 * Median over consecutive windows of @p windowSize samples (in due
 * order) of each window's @p p latency percentile in ms. A trailing
 * window too small to support @p p (supportedPercentile) is left
 * out; 0 when no window supports it.
 */
double windowedPercentile(std::vector<OpenLoopSample> samples,
                          std::size_t windowSize, double p);

} // namespace hostbench

#endif // HOSTBENCH_STATS_HH
