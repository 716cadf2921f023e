#include "exec/sweep_executor.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "obs/metrics_export.hh"

namespace unistc
{

namespace
{

/** Base mixed into auto-assigned per-job seeds. */
constexpr std::uint64_t kJobSeedBase = 0x5EEDBA5Eu;

} // namespace

SweepExecutor::SweepExecutor() : SweepExecutor(Options()) {}

SweepExecutor::SweepExecutor(const Options &opt)
    : opt_(opt), pool_(opt.jobs <= 1 ? 0 : opt.jobs)
{
}

SweepExecutor::~SweepExecutor() { pool_.wait(); }

std::size_t
SweepExecutor::submit(JobSpec spec)
{
    UNISTC_ASSERT(!merged_,
                  "SweepExecutor::submit after wait(): start a new "
                  "executor for a new sweep");
    const std::size_t index = slots_.size();
    if (spec.seed == 0) {
        // Seeded per-job (by submission index), never per-thread:
        // the stream is identical whichever worker runs the job.
        spec.seed = kJobSeedBase + static_cast<std::uint64_t>(index);
    }
    Slot *slot = &slots_.emplace_back();
    slot->spec = std::move(spec);
    if (opt_.tracePerJob > 0) {
        // One trace process per lineup model; a single-model job
        // keeps pid == submission index (pids advance by each job's
        // fan-out).
        for (std::size_t m = 0; m < slot->spec.fanout(); ++m) {
            auto &sink = slot->sinks.emplace_back(
                std::make_unique<TraceSink>(opt_.tracePerJob));
            sink->setProcess(nextPid_ + static_cast<int>(m),
                             slot->spec.modelName(m) + " | " +
                                 slot->spec.matrix);
        }
    }
    nextPid_ += static_cast<int>(slot->spec.fanout());
    pool_.submit([this, slot] { runSlot(*slot); });
    return index;
}

void
SweepExecutor::runSlot(Slot &slot)
{
    std::vector<TraceSink *> traces;
    for (const auto &sink : slot.sinks)
        traces.push_back(sink.get());
    // One pass over one task stream, every task fanned out to the
    // whole lineup; engine counters are kept for lineups only.
    PipelineCounters *counters =
        slot.spec.fanout() > 1 ? &slot.counters : nullptr;
    try {
        slot.results = slot.spec.runMulti(traces, counters);
    } catch (...) {
        slot.error = std::current_exception();
    }
}

void
SweepExecutor::wait()
{
    pool_.wait();
    if (merged_)
        return;

    // A failed job fails the sweep: surface the first failure in
    // submission order — what a serial run would have hit first —
    // before any merging happens.
    for (const Slot &s : slots_) {
        if (s.error)
            std::rethrow_exception(s.error);
    }
    merged_ = true;

    // Deterministic merge: strictly submission order, independent of
    // which worker finished when.
    if (opt_.collectStats) {
        stats_.setCounter(opt_.statsPrefix + "jobCount",
                          slots_.size(),
                          "jobs executed by this sweep");
        std::uint64_t total_cycles = 0;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            const Slot &s = slots_[i];
            for (std::size_t m = 0; m < s.spec.fanout(); ++m) {
                const RunResult &res = s.results[m];
                registerRunResult(
                    stats_, res,
                    opt_.statsPrefix + std::to_string(i) + "." +
                        s.spec.matrix + "." + s.spec.modelName(m) +
                        "." + toString(s.spec.kernel) + ".");
                total_cycles += res.cycles;
            }
        }
        stats_.setCounter(opt_.statsPrefix + "totalCycles",
                          total_cycles,
                          "sum of simulated cycles over all jobs");
    }

    // Aggregate engine counters over multi-model jobs: tasks and
    // wall times sum; fan-out and peak-live are maxima. Only the
    // deterministic counter fields enter stats() — wall times would
    // break the 1-vs-N-worker byte-identical stats guarantee.
    bool any_multi = false;
    for (const Slot &s : slots_) {
        if (s.spec.fanout() <= 1)
            continue;
        any_multi = true;
        engineCounters_.tasksGenerated += s.counters.tasksGenerated;
        engineCounters_.modelsFanout =
            std::max(engineCounters_.modelsFanout,
                     s.counters.modelsFanout);
        engineCounters_.peakLiveTasks =
            std::max(engineCounters_.peakLiveTasks,
                     s.counters.peakLiveTasks);
        engineCounters_.enumerateSeconds +=
            s.counters.enumerateSeconds;
        engineCounters_.modelSeconds += s.counters.modelSeconds;
    }
    if (any_multi && opt_.collectStats) {
        engineCounters_.registerStats(stats_, "engine.",
                                      /*includeTiming=*/false);
    }

    if (opt_.tracePerJob > 0) {
        std::size_t total = 0;
        for (const Slot &s : slots_) {
            for (const auto &sink : s.sinks)
                total += sink->size();
        }
        mergedTrace_ =
            std::make_unique<TraceSink>(std::max<std::size_t>(total,
                                                              1));
        for (const Slot &s : slots_) {
            for (const auto &sink : s.sinks)
                mergedTrace_->mergeFrom(*sink);
        }
    }
}

const JobSpec &
SweepExecutor::spec(std::size_t i) const
{
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    return slots_[i].spec;
}

const RunResult &
SweepExecutor::result(std::size_t i) const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::result before wait()");
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    return slots_[i].results.front();
}

std::size_t
SweepExecutor::fanout(std::size_t i) const
{
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    return slots_[i].spec.fanout();
}

const RunResult &
SweepExecutor::resultOf(std::size_t i, std::size_t m) const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::resultOf before wait()");
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    const Slot &s = slots_[i];
    UNISTC_ASSERT(m < s.spec.fanout(), "model index ", m,
                  " out of range for job ", i);
    return s.results[m];
}

const PipelineCounters &
SweepExecutor::countersOf(std::size_t i) const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::countersOf before wait()");
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    return slots_[i].counters;
}

const PipelineCounters &
SweepExecutor::pipelineCounters() const
{
    UNISTC_ASSERT(merged_,
                  "SweepExecutor::pipelineCounters before wait()");
    return engineCounters_;
}

const StatRegistry &
SweepExecutor::stats() const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::stats before wait()");
    return stats_;
}

const TraceSink *
SweepExecutor::trace() const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::trace before wait()");
    return mergedTrace_.get();
}

int
SweepExecutor::resolveJobs(int requested, int fallback)
{
    if (requested > 0)
        return requested;
    const char *env = std::getenv("UNISTC_JOBS");
    if (env != nullptr && *env != '\0') {
        const std::string text(env);
        if (text == "0" || text == "auto")
            return ThreadPool::hardwareThreads();
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != nullptr && *end == '\0' && v > 0)
            return static_cast<int>(std::min<long>(v, 1024));
        UNISTC_WARN("ignoring bad UNISTC_JOBS '", text,
                    "' (want a positive integer or 'auto')");
    }
    return fallback;
}

} // namespace unistc
