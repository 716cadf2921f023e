/**
 * @file
 * ExecutionContext: everything one sweep run needs to execute —
 * the --jobs sweep session plus the result log — owned by one object
 * instead of per-process singletons (the bench_common.hh arrangement
 * this library replaced). A process gets
 * a default context (global()) whose ResultLog still arms the
 * UNISTC_BENCH_JSON dump-at-exit, so existing binaries behave
 * identically; embedders (tests, the future unistc_serve daemon)
 * construct their own contexts and run several sweeps back to back
 * in one process without state leaking between them (beginRun()).
 *
 * runKernel()/runKernelLineup() and the report()/reportf() sink
 * route through active(): current() when a DriverSession (or a test)
 * installed one, the process default otherwise.
 */

#ifndef UNISTC_DRIVER_EXECUTION_CONTEXT_HH
#define UNISTC_DRIVER_EXECUTION_CONTEXT_HH

#include <string>
#include <string_view>

#include "driver/result_log.hh"
#include "driver/sweep_session.hh"
#include "obs/trace.hh"

namespace unistc
{
namespace driver
{

/** One run's execution state: sweep session + result log. */
class ExecutionContext
{
  public:
    /** A fresh embeddable context (no dump-at-exit side effects). */
    ExecutionContext() : ExecutionContext(false) {}

    ExecutionContext(const ExecutionContext &) = delete;
    ExecutionContext &operator=(const ExecutionContext &) = delete;

    /**
     * The process-default context — the one whose ResultLog dumps
     * UNISTC_BENCH_JSON at exit. Intentionally leaked so the atexit
     * handler can outlive static destruction.
     */
    static ExecutionContext &global();

    /** The installed context, null when none is. */
    static ExecutionContext *current();

    /**
     * Install @p ctx as the context runKernel() routes through
     * (null restores the process default). Returns the previous one
     * so scopes can nest.
     */
    static ExecutionContext *makeCurrent(ExecutionContext *ctx);

    /** current() when installed, the process default otherwise. */
    static ExecutionContext &active();

    SweepSession &sweep() { return sweep_; }
    ResultLog &results() { return results_; }

    /**
     * False while the body's output is being discarded — the --jobs
     * plan pass, where report() drops its text and results are
     * sentinels. Front-ends guard artifact writes
     * (traces, stats JSON, saved BBC containers) on it so files are
     * written exactly once, by the reporting run.
     */
    bool reportingPass() const { return reportingPass_; }
    void setReportingPass(bool on) { reportingPass_ = on; }

    /**
     * The body's report sink: drops @p text on a non-reporting pass,
     * appends it to the capture buffer when one is installed, and
     * writes it to stdout otherwise.
     */
    void report(std::string_view text);

    /**
     * Route report text into @p buffer instead of stdout (null
     * restores stdout). Kept across beginRun(), so it can be
     * installed before a DriverSession starts (unistc_serve does).
     */
    void captureReport(std::string *buffer) { capture_ = buffer; }

    /**
     * The run's trace: the sweep executor's merged per-job trace
     * during replay, null otherwise.
     */
    const TraceSink *
    runTrace() const
    {
        const SweepExecutor *exec = sweep_.executor();
        return exec != nullptr ? exec->trace() : nullptr;
    }

    /**
     * Reset per-run session state (sweep mode and cursor, reporting
     * pass) so a long-lived context can serve another request.
     * Recorded results are kept: the log spans the process.
     */
    void beginRun();

  private:
    explicit ExecutionContext(bool processDefault)
        : results_(/*atexitDump=*/processDefault)
    {
    }

    SweepSession sweep_;
    ResultLog results_;
    bool reportingPass_ = true;
    std::string *capture_ = nullptr;
};

/** Report @p text through the active context's sink. */
void report(std::string_view text);

/** printf-formatted report(). */
void reportf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_EXECUTION_CONTEXT_HH
