/**
 * @file
 * The serve phase: unistc_serve on a Unix socket, driven over its
 * wire protocol by an in-process load generator — an open loop at a
 * fixed offered rate, then closed-loop batches over min(4, nproc)
 * connections — with every response checked byte for byte against
 * the one-shot simulate path run in this process. Its numbers are
 * per-layer only: the shared machine's wake-up noise makes them too
 * unsteady to bound (README.md).
 */

#ifndef HOSTBENCH_SERVE_LOAD_HH
#define HOSTBENCH_SERVE_LOAD_HH

#include "report.hh"
#include "spans.hh"

namespace hostbench
{

/** Run the phase and set the serve.* and loadgen.* metrics. */
void runServePhase(const Options &opt, Report &rep, SpanRecorder *rec);

} // namespace hostbench

#endif // HOSTBENCH_SERVE_LOAD_HH
