/**
 * @file
 * The sweep workloads (tab08_sweep, vector_large): serial and --jobs
 * passes through driver::runKernelLineup under a DriverSession, and
 * the traced pass that drives makeKernelPlan / TaskStream::next /
 * StcModel::runBlock / finalizeRun itself so every layer gets a span.
 */

#ifndef HOSTBENCH_SWEEP_HH
#define HOSTBENCH_SWEEP_HH

#include <string>

#include "check.hh"
#include "report.hh"
#include "spans.hh"

namespace hostbench
{

/**
 * Compare @p actual with the committed digests expected/<name>.digests
 * when the run's seed is the one they were made for (or rewrite them
 * when Options::writeDigests is set); each differing unit is a
 * failure.
 */
void verifyDigests(const Options &opt, const std::string &name,
                   const DigestList &actual, Report &rep);

/** tab08_sweep / vector_large; vector_large's traced run adds the
 * serve phase. */
void runSweepWorkload(const Options &opt, Report &rep,
                      SpanRecorder *rec);

} // namespace hostbench

#endif // HOSTBENCH_SWEEP_HH
