#include "exec/sweep_executor.hh"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/logging.hh"

namespace unistc
{

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
    Slot *slot = &slots_.emplace_back();
    slot->spec = std::move(spec);
    const std::size_t fanout = slot->spec.models.size();
    if (opt_.tracePerJob > 0) {
        // One trace process per lineup model; pids advance by each
        // job's fan-out.
        for (std::size_t m = 0; m < fanout; ++m) {
            auto &sink = slot->sinks.emplace_back(
                std::make_unique<TraceSink>(opt_.tracePerJob));
            sink->setProcess(nextPid_ + static_cast<int>(m),
                             slot->spec.models[m]->name() + " | " +
                                 slot->spec.matrix);
        }
    }
    nextPid_ += static_cast<int>(fanout);
    pool_.submit([this, slot] { runSlot(*slot); });
    return index;
}

void
SweepExecutor::runSlot(Slot &slot)
{
    std::vector<TraceSink *> traces;
    for (const auto &sink : slot.sinks)
        traces.push_back(sink.get());
    try {
        slot.results = slot.spec.run(traces, &slot.counters);
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
SweepExecutor::resultOf(std::size_t i, std::size_t m) const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::resultOf before wait()");
    UNISTC_ASSERT(i < slots_.size(), "job index ", i,
                  " out of range");
    const Slot &s = slots_[i];
    UNISTC_ASSERT(m < s.results.size(), "model index ", m,
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

const TraceSink *
SweepExecutor::trace() const
{
    UNISTC_ASSERT(merged_, "SweepExecutor::trace before wait()");
    return mergedTrace_.get();
}

} // namespace unistc
