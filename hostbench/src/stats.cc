#include "stats.hh"

#include <algorithm>

namespace hostbench
{

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
supportedPercentile(std::size_t n)
{
    // p = num/den; samples beyond it = floor(n * (den - num) / den).
    struct Level
    {
        std::size_t num, den;
    };
    static constexpr Level kLevels[] = {
        {999, 1000}, {99, 100}, {9, 10}, {1, 2}};
    for (const Level &l : kLevels) {
        if (n * (l.den - l.num) / l.den >= 10)
            return static_cast<double>(l.num) /
                   static_cast<double>(l.den);
    }
    return 0.0;
}

OpenLoopSummary
summarizeOpenLoop(const std::vector<OpenLoopSample> &samples,
                  double limitMs)
{
    OpenLoopSummary out;
    out.sent = samples.size();
    out.latencyMs.reserve(samples.size());
    out.lateMs.reserve(samples.size());
    for (const OpenLoopSample &s : samples) {
        const double latency = (s.done - s.due) * 1e3;
        out.latencyMs.push_back(latency);
        out.lateMs.push_back(std::max(0.0, (s.sent - s.due) * 1e3));
        if (!s.ok || latency > limitMs)
            ++out.missed;
    }
    return out;
}

double
windowedPercentile(std::vector<OpenLoopSample> samples,
                   std::size_t windowSize, double p)
{
    std::sort(samples.begin(), samples.end(),
              [](const OpenLoopSample &a, const OpenLoopSample &b) {
                  return a.due < b.due;
              });
    std::vector<double> perWindow;
    for (std::size_t lo = 0; lo < samples.size() && windowSize > 0;
         lo += windowSize) {
        const std::size_t hi = std::min(lo + windowSize, samples.size());
        if (supportedPercentile(hi - lo) < p)
            continue;
        std::vector<double> ms;
        for (std::size_t i = lo; i < hi; ++i)
            ms.push_back((samples[i].done - samples[i].due) * 1e3);
        perWindow.push_back(percentile(std::move(ms), p));
    }
    return median(std::move(perWindow));
}

} // namespace hostbench
