/**
 * @file
 * ServeCore: the unistc_serve daemon's execution heart
 * (docs/SERVING.md). Connection threads submit decoded WireRequests
 * and block for the response; a single executor thread runs the
 * simulations, each reporting into its response through its own
 * ExecutionContext. Execution stays serialised because the installed
 * ExecutionContext::current() slot, the log level and BenchSink's
 * manual run are process-wide; concurrency lives in the socket layer
 * plus the admission queue.
 *
 * What a "run" request gets:
 *
 *  - its argv parsed by the same driver::parseSweepCli +
 *    serve::makeExperiment path as simulate_cli, then executed by a
 *    DriverSession over serve::simulateBody — the response output is
 *    byte-identical to a one-shot simulate_cli run by construction;
 *  - a fresh ExecutionContext of its own, dropped with the response,
 *    so nothing a request leaves behind outlives it;
 *  - the daemon's hot cache: an LRU of Prepared matrices (decoded
 *    CSR + BBC fingerprints) shared across clients;
 *  - batching: compatible queued requests (same matrix, kernel and
 *    machine config) are pre-computed in ONE shared KernelPipeline
 *    lineup pass, and each request's body splices its models' results
 *    from the memo — bit-identical to solo execution
 *    (docs/ARCHITECTURE.md);
 *  - a per-request warehouse run (BenchSink manual mode) labelled
 *    from the request, commit counters carrying the robust.serve_*
 *    snapshot.
 *
 * Load shedding: over the queue bound or a per-client quota the
 * request is rejected immediately (serve/admission.hh) — the daemon
 * never queues without bound.
 */

#ifndef UNISTC_SERVE_SERVE_CORE_HH
#define UNISTC_SERVE_SERVE_CORE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "driver/execution_context.hh"
#include "driver/kernel_run.hh"
#include "driver/wire_codec.hh"
#include "serve/admission.hh"
#include "serve/sim_service.hh"

namespace unistc
{
namespace serve
{

/** Daemon tuning knobs (all have sensible defaults). */
struct ServeOptions
{
    ServeLimits limits;

    /** Prepared matrices kept hot across requests (LRU). */
    std::size_t preparedCacheCap = 8;
};

/** See the file header. */
class ServeCore
{
  public:
    explicit ServeCore(const ServeOptions &opt);
    ~ServeCore();

    ServeCore(const ServeCore &) = delete;
    ServeCore &operator=(const ServeCore &) = delete;

    /**
     * Execute @p req and block until its response is ready
     * (thread-safe). "ping"/"stats" answer inline — health checks
     * still work under overload; "shutdown" flips the stop flag and
     * returns a final counter snapshot; "run" goes through admission
     * and the executor queue.
     */
    driver::WireResponse submit(const driver::WireRequest &req);

    /** Build a "rejected" response for an undecodable line. */
    driver::WireResponse rejectMalformed(const std::string &id,
                                         const Status &error);

    /** Current robust.serve_* tallies. */
    std::map<std::string, std::uint64_t> counterSnapshot() const;

    /** True once a shutdown request (or stop()) was seen. */
    bool stopRequested() const;

    /**
     * Refuse new work, drain the already-admitted queue, join the
     * executor. Idempotent; the destructor calls it.
     */
    void stop();

  private:
    struct Job;
    class Hooks;

    void executorLoop();

    /** Parse + policy-check @p job (caller holds mu_). */
    void parseJobLocked(Job &job);

    /** One shared lineup pass over @p batch; results keyed by
     * resultMemoKey land in @p memo. */
    void precomputeBatch(
        const std::vector<std::shared_ptr<Job>> &batch,
        std::map<std::string, RunResult> *memo);

    /** Run one request's body, capture its report, fill the
     * response. */
    void runJob(Job &job,
                const std::map<std::string, RunResult> &memo);

    /** LRU lookup/build of the Prepared for @p source
     * (executor thread only). */
    std::shared_ptr<driver::Prepared>
    preparedFor(const std::string &source,
                const std::function<driver::Prepared()> &build,
                bool *hit);

    const ServeOptions opt_;
    AdmissionController admission_;

    mutable std::mutex mu_;
    std::condition_variable workCv_; ///< Executor wake-up.
    std::condition_variable doneCv_; ///< submit() completion.
    std::deque<std::shared_ptr<Job>> queue_;
    bool stop_ = false;

    // Executor-thread-only state (no lock needed).
    std::list<std::pair<std::string,
                        std::shared_ptr<driver::Prepared>>>
        preparedLru_;

    std::thread executor_;
};

} // namespace serve
} // namespace unistc

#endif // UNISTC_SERVE_SERVE_CORE_HH
