/**
 * @file
 * Parallel sweep executor: fans independent JobSpecs out across a
 * ThreadPool and merges per-job trace buffers back in deterministic
 * submission order at the wait() barrier.
 *
 * Determinism guarantee: every job is a pure function of its spec
 * (own model clones, shared immutable operands), and all merging
 * happens at the barrier in submission order. A sweep executed with
 * 1 worker and with N workers therefore produces bit-identical
 * results, engine counters and trace output; only wall-clock time
 * differs.
 *
 * Failure: a job that throws fails the sweep. wait() rethrows the
 * first failure in submission order — the very exception a serial
 * run of the same jobs would have thrown first, at any worker count.
 * Jobs are deterministic, so there is nothing to retry: a failing
 * job is a bug to fix, and the run fails at every worker count.
 */

#ifndef UNISTC_EXEC_SWEEP_EXECUTOR_HH
#define UNISTC_EXEC_SWEEP_EXECUTOR_HH

#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <vector>

#include "engine/kernel_pipeline.hh"
#include "exec/job_spec.hh"
#include "exec/thread_pool.hh"
#include "obs/trace.hh"

namespace unistc
{

/** Fan-out / deterministic-merge driver for simulation sweeps. */
class SweepExecutor
{
  public:
    struct Options
    {
        /** Worker threads; <= 1 runs jobs inline at submit(). */
        int jobs = 1;

        /**
         * Per-job TraceSink ring capacity; 0 disables tracing. The
         * merged trace() concatenates per-job buffers in submission
         * order.
         */
        std::size_t tracePerJob = 0;
    };

    explicit SweepExecutor(const Options &opt);

    /** Waits for outstanding jobs (results are discarded). */
    ~SweepExecutor();

    SweepExecutor(const SweepExecutor &) = delete;
    SweepExecutor &operator=(const SweepExecutor &) = delete;

    /**
     * Enqueue a job; execution may begin immediately on a worker
     * (or runs inline when jobs <= 1). Returns the job index.
     * submit() after wait() is a lifecycle bug (panic).
     */
    std::size_t submit(JobSpec spec);

    /**
     * Barrier: block until every submitted job has run, then merge
     * trace buffers in submission order. When a job threw, rethrows
     * the first such exception in submission order instead of
     * merging. Idempotent once it has returned.
     */
    void wait();

    std::size_t jobCount() const { return slots_.size(); }

    /** Worker threads in use (0 = inline). */
    int workerCount() const { return pool_.threadCount(); }

    /** Spec of job @p i as submitted. */
    const JobSpec &spec(std::size_t i) const;

    /**
     * Result of model @p m of job @p i, in lineup order; requires
     * wait() first.
     */
    const RunResult &resultOf(std::size_t i, std::size_t m) const;

    /**
     * Engine counters of job @p i's pipeline pass; requires wait()
     * first.
     */
    const PipelineCounters &countersOf(std::size_t i) const;

    /**
     * Merged trace, null when Options::tracePerJob is 0; requires
     * wait(). Each lineup model of each job appears as its own trace
     * process named "<model> | <matrix>".
     */
    const TraceSink *trace() const;

  private:
    struct Slot
    {
        JobSpec spec;

        /** Per-model results (lineup order). */
        std::vector<RunResult> results;

        /** One trace sink per lineup model; empty when not tracing. */
        std::vector<std::unique_ptr<TraceSink>> sinks;

        /** Engine counters of the job's pipeline pass. */
        PipelineCounters counters;

        /** What the job threw; null when it ran cleanly. */
        std::exception_ptr error;
    };

    /** Execute one job, capturing its exception. */
    void runSlot(Slot &slot);

    Options opt_;
    ThreadPool pool_;
    /** Deque: stable element addresses while workers run. */
    std::deque<Slot> slots_;
    std::unique_ptr<TraceSink> mergedTrace_;
    bool merged_ = false;
    int nextPid_ = 0;
};

} // namespace unistc

#endif // UNISTC_EXEC_SWEEP_EXECUTOR_HH
