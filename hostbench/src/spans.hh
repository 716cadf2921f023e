/**
 * @file
 * In-memory span recorder for the benchmark's traced run. Spans are
 * recorded by the benchmark around its calls into the simulator's
 * layers (corpus, bbc, runner, engine, models, finalize, driver,
 * serve), kept in memory and written as Chrome trace-event JSON when
 * the run ends.
 *
 * Work too fine-grained for one span per event — a model's runBlock()
 * on each of millions of T1 tasks — is timed by the caller and
 * *charged* to the innermost open span as one aggregate child. Self
 * time treats a charge like a child span: a span's self time is its
 * duration minus its child spans and charges, and each charge is its
 * own self time. Over any subtree the self times therefore sum to the
 * root's duration exactly, so nothing is double counted and the
 * root's own self time is the unattributed remainder.
 */

#ifndef HOSTBENCH_SPANS_HH
#define HOSTBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench
{

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0; ///< Seconds since the recorder's epoch.
        double end = 0.0;
        int parent = -1;       ///< Index of the enclosing span, -1 = root.
        std::uint64_t id = 0;  ///< Unit or request id.
        int tid = 0;           ///< Chrome track (load generator thread).
    };

    struct Charge
    {
        std::string name;
        int parent = -1;
        double seconds = 0.0;
    };

    SpanRecorder();

    /** Seconds since the recorder's epoch (steady clock). */
    double now() const;

    /** Open a span nested in the innermost open one; returns its index. */
    int begin(const std::string &name, std::uint64_t id = 0);

    /** Close span @p index, which must be the innermost open one. */
    void end(int index);

    /** Charge @p seconds of aggregated child work to the open span. */
    void charge(const std::string &name, double seconds);

    /**
     * Add a finished span measured elsewhere (a load-generator
     * thread), nested under the innermost open span.
     */
    void add(const std::string &name, double start, double end,
             std::uint64_t id, int tid);

    const std::vector<Span> &spans() const { return spans_; }

    double duration(int index) const;

    /**
     * Self time per name over the subtree rooted at @p root (the
     * whole recording when -1).
     */
    std::map<std::string, double> selfTimes(int root = -1) const;

    /** Summed duration of every span called @p name. */
    double total(const std::string &name) const;

    /** Number of spans called @p name. */
    std::size_t count(const std::string &name) const;

    /** Chrome trace-event JSON; false on an I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<Charge> charges_;
    std::vector<int> open_;
};

/** RAII span; a null recorder makes it a no-op (untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name,
               std::uint64_t id = 0)
        : rec_(rec), index_(rec ? rec->begin(name, id) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_ != nullptr)
            rec_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    int index_;
};

} // namespace hostbench

#endif // HOSTBENCH_SPANS_HH
