#include "driver/driver_session.hh"

#include <cstdlib>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#define UNISTC_DRIVER_POSIX 1
#else
#define UNISTC_DRIVER_POSIX 0
#endif

#include "common/logging.hh"
#include "warehouse/sink.hh"

namespace unistc
{
namespace driver
{

namespace
{

/**
 * Plan-pass log silence: raises the log level so a recording
 * traversal of the body logs nothing below errors (fatal()/panic()
 * still reach stderr); restores it on destruction. Report text is
 * dropped by the context itself (reportingPass()).
 */
class ScopedPlanQuiet
{
  public:
    ScopedPlanQuiet() : savedLevel_(logLevel())
    {
        if (savedLevel_ < LogLevel::Error)
            setLogLevel(LogLevel::Error);
    }

    ~ScopedPlanQuiet() { setLogLevel(savedLevel_); }

    ScopedPlanQuiet(const ScopedPlanQuiet &) = delete;
    ScopedPlanQuiet &operator=(const ScopedPlanQuiet &) = delete;

  private:
    LogLevel savedLevel_;
};

/** Restore the previous current() context on scope exit. */
class ScopedCurrentContext
{
  public:
    explicit ScopedCurrentContext(ExecutionContext &ctx)
        : previous_(ExecutionContext::makeCurrent(&ctx))
    {
    }

    ~ScopedCurrentContext()
    {
        ExecutionContext::makeCurrent(previous_);
    }

    ScopedCurrentContext(const ScopedCurrentContext &) = delete;
    ScopedCurrentContext &
    operator=(const ScopedCurrentContext &) = delete;

  private:
    ExecutionContext *previous_;
};

} // namespace

int
DriverSession::run(const SweepRequest &req, int argc, char **argv,
                   const Body &body)
{
    ScopedCurrentContext scope(ctx_);
    // A long-lived context (tests, the future serve daemon) may run
    // several requests back to back; stale per-run session state must
    // not leak into this one.
    ctx_.beginRun();
    if (req.logLevelSet)
        setLogLevel(req.logLevel);
#if UNISTC_DRIVER_POSIX
    // --smoke: propagate the tiny-corpus environment before the body
    // runs, so every corpus builder sees it. Existing environment
    // settings win.
    if (req.smoke) {
        ::setenv("UNISTC_BENCH_QUICK", "1", 0);
        ::setenv("UNISTC_CORPUS_CLAMP", "2", 0);
    }
#endif

    // Warehouse sink (off unless UNISTC_WAREHOUSE_DIR): opened before
    // the body so rows stream out as they are recorded.
    warehouse::BenchSink::instance().configure(argc, argv);

    // A plan/replay double traversal is needed for parallelism and
    // for per-job trace spans — a traced run uses it even at
    // --jobs 1 so the trace has the same structure for any N.
    const bool usePlanPass =
        req.jobs > 1 || req.traceJobCapacity > 0;
    if (!usePlanPass)
        return body(argc, argv);
    ctx_.sweep().startPlan(req);
    int rc;
    {
        ScopedPlanQuiet quiet;
        ctx_.setReportingPass(false);
        rc = body(argc, argv);
        ctx_.setReportingPass(true);
    }
    if (rc != 0)
        return rc;
    ctx_.sweep().startReplay();
    rc = body(argc, argv);
    ctx_.sweep().reset();
    return rc;
}

} // namespace driver
} // namespace unistc
