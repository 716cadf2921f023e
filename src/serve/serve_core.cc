#include "serve/serve_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "driver/driver_session.hh"
#include "stc/registry.hh"
#include "warehouse/sink.hh"

namespace unistc
{
namespace serve
{

namespace
{

/** argv the parser and DriverSession see: the CLI binary's shape. */
std::vector<std::string>
cliArgv(const driver::WireRequest &req)
{
    std::vector<std::string> args;
    args.reserve(req.argv.size() + 1);
    args.emplace_back("simulate_cli");
    args.insert(args.end(), req.argv.begin(), req.argv.end());
    return args;
}

} // namespace

/** One admitted request's slot in the executor queue. */
struct ServeCore::Job
{
    driver::WireRequest req;
    driver::WireResponse resp;
    bool done = false;

    // Filled by parseJobLocked on the executor thread.
    bool parsed = false;
    bool runnable = false;
    bool batchable = false;
    std::string batchKey;
    std::vector<std::string> args; ///< Owns the argv bytes.
    driver::ParsedCli cli;
    Experiment ex;
};

/** The body's seam into the daemon's caches and the batch memo. */
class ServeCore::Hooks : public ServeHooks
{
  public:
    Hooks(ServeCore &core,
          const std::map<std::string, RunResult> &memo)
        : core_(core), memo_(memo)
    {
    }

    const driver::Prepared &
    prepared(const std::string &source,
             const std::function<driver::Prepared()> &build) override
    {
        bool hit = false;
        keep_ = core_.preparedFor(source, build, &hit);
        core_.admission_.notePrepared(hit);
        return *keep_;
    }

    bool
    lookupResult(const std::string &memoKey, RunResult *out) override
    {
        const auto it = memo_.find(memoKey);
        if (it == memo_.end())
            return false;
        *out = it->second;
        return true;
    }

  private:
    ServeCore &core_;
    const std::map<std::string, RunResult> &memo_;
    std::shared_ptr<driver::Prepared> keep_;
};

ServeCore::ServeCore(const ServeOptions &opt)
    : opt_(opt), admission_(opt.limits)
{
    // One warehouse run per request, labelled from the wire — not
    // one per process (docs/SERVING.md).
    warehouse::BenchSink::instance().setManual(true);
    executor_ = std::thread([this] { executorLoop(); });
}

ServeCore::~ServeCore()
{
    stop();
    warehouse::BenchSink::instance().setManual(false);
}

driver::WireResponse
ServeCore::submit(const driver::WireRequest &req)
{
    driver::WireResponse resp;
    resp.id = req.id;
    if (req.op == "ping") {
        resp.status = "ok";
        return resp;
    }
    if (req.op == "stats") {
        resp.status = "ok";
        resp.counters = counterSnapshot();
        return resp;
    }
    if (req.op == "shutdown") {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        workCv_.notify_all();
        resp.status = "ok";
        resp.counters = counterSnapshot();
        return resp;
    }

    const std::string client =
        req.client.empty() ? "anonymous" : req.client;
    std::shared_ptr<Job> job;
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (stop_) {
            resp.status = "rejected";
            resp.error = "daemon is shutting down";
            return resp;
        }
        if (Status adm = admission_.admit(client, queue_.size());
            !adm.ok()) {
            resp.status = "rejected";
            resp.error = adm.message();
            return resp;
        }
        job = std::make_shared<Job>();
        job->req = req;
        job->req.client = client;
        job->resp.id = req.id;
        queue_.push_back(job);
        workCv_.notify_one();
        doneCv_.wait(lock, [&job] { return job->done; });
    }
    admission_.finish(client, job->resp.status == "ok");
    return job->resp;
}

driver::WireResponse
ServeCore::rejectMalformed(const std::string &id, const Status &error)
{
    admission_.noteMalformed();
    driver::WireResponse resp;
    resp.id = id;
    resp.status = "rejected";
    resp.error = error.message();
    return resp;
}

std::map<std::string, std::uint64_t>
ServeCore::counterSnapshot() const
{
    return admission_.counters().asMap();
}

bool
ServeCore::stopRequested() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stop_;
}

void
ServeCore::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    if (executor_.joinable())
        executor_.join();
}

void
ServeCore::executorLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        workCv_.wait(lock,
                     [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stop_)
                return; // Admitted work is always drained first.
            continue;
        }
        std::shared_ptr<Job> head = queue_.front();
        queue_.pop_front();
        parseJobLocked(*head);

        // Gather every queued request that can ride the same lineup:
        // identical matrix, kernel and machine config, plain serial
        // execution. Requests that fail to parse are answered right
        // here instead of waiting their turn.
        std::vector<std::shared_ptr<Job>> batch{head};
        std::vector<std::shared_ptr<Job>> unparsable;
        if (head->runnable && head->batchable) {
            for (auto it = queue_.begin(); it != queue_.end();) {
                parseJobLocked(**it);
                if (!(*it)->runnable) {
                    unparsable.push_back(*it);
                    it = queue_.erase(it);
                } else if ((*it)->batchable &&
                           (*it)->batchKey == head->batchKey) {
                    batch.push_back(*it);
                    it = queue_.erase(it);
                } else {
                    ++it;
                }
            }
        }
        lock.unlock();

        if (head->runnable) {
            std::map<std::string, RunResult> memo;
            if (batch.size() > 1)
                precomputeBatch(batch, &memo);
            for (const std::shared_ptr<Job> &job : batch)
                runJob(*job, memo);
        }

        lock.lock();
        for (const std::shared_ptr<Job> &job : batch)
            job->done = true;
        for (const std::shared_ptr<Job> &job : unparsable)
            job->done = true;
        doneCv_.notify_all();
    }
}

void
ServeCore::parseJobLocked(Job &job)
{
    if (job.parsed)
        return;
    job.parsed = true;
    job.args = cliArgv(job.req);
    std::vector<char *> argv;
    argv.reserve(job.args.size());
    for (std::string &arg : job.args)
        argv.push_back(arg.data());
    const int argc = static_cast<int>(argv.size());

    Result<driver::ParsedCli> parsed =
        driver::parseSweepCli(argc, argv.data(), simulateCliFlags());
    if (!parsed.ok()) {
        admission_.noteMalformed();
        job.resp.status = "error";
        job.resp.exitCode = 1;
        job.resp.error = parsed.status().message();
        return;
    }
    job.cli = std::move(parsed).value();

    // Serve policy: no server-side artifact writes, no
    // process-global reconfiguration on behalf of one client.
    std::string refused;
    if (job.cli.helpRequested || job.cli.versionRequested)
        refused = "--help/--version";
    else if (job.cli.request.smoke)
        refused = "--smoke";
    else if (job.cli.extra.count("save-bbc"))
        refused = "--save-bbc";
    else if (job.cli.extra.count("trace") ||
             job.cli.extra.count("trace-events"))
        refused = "--trace";
    else if (job.cli.extra.count("stats-json"))
        refused = "--stats-json";
    if (!refused.empty()) {
        admission_.noteUnsupported();
        job.resp.status = "error";
        job.resp.exitCode = 1;
        job.resp.error = refused +
                         " is not supported over the serve wire "
                         "(run simulate_cli directly)";
        return;
    }

    try {
        ScopedFatalThrow guard;
        job.ex = makeExperiment(job.cli);
    } catch (const UnistcError &e) {
        admission_.noteMalformed();
        job.resp.status = "error";
        job.resp.exitCode = 1;
        job.resp.error = e.status().message();
        return;
    }
    job.runnable = true;
    // --arch lineups already share one task stream; --jobs and
    // --trace change execution policy per request. Only plain serial
    // single-model-loop requests batch.
    job.batchable = !job.ex.multi && job.cli.request.jobs == 1 &&
                    job.cli.request.traceJobCapacity == 0;
    job.batchKey = job.ex.kernelName + '|' + sourceLabel(job.ex) +
                   '|' + toString(job.ex.cfg.precision) + '|' +
                   std::to_string(job.ex.cfg.numDpgs) + '|' +
                   std::to_string(job.ex.bCols);
}

void
ServeCore::precomputeBatch(
    const std::vector<std::shared_ptr<Job>> &batch,
    std::map<std::string, RunResult> *memo)
{
    const Job &head = *batch.front();
    // Union of the batch's models, first-appearance order.
    std::vector<std::string> names;
    for (const std::shared_ptr<Job> &job : batch) {
        for (const std::string &name : job->ex.names) {
            if (std::find(names.begin(), names.end(), name) ==
                names.end())
                names.push_back(name);
        }
    }
    try {
        ScopedFatalThrow guard;
        bool hit = false;
        std::shared_ptr<driver::Prepared> prep = preparedFor(
            sourceLabel(head.ex),
            [&head] { return buildPrepared(head.ex); }, &hit);
        admission_.notePrepared(hit);

        std::vector<StcModelPtr> owned;
        std::vector<const StcModel *> models;
        owned.reserve(names.size());
        models.reserve(names.size());
        for (const std::string &name : names) {
            owned.push_back(makeStcModel(name, head.ex.cfg));
            models.push_back(owned.back().get());
        }

        // A scratch context keeps the precompute's ResultLog entries
        // out of every client's log; the warehouse sink has no open
        // run here, so nothing is mirrored. The engine guarantees
        // each lineup result is bit-identical to a one-model
        // runKernel() call — that is what lets the body splice these
        // without changing one output byte.
        driver::ExecutionContext scratch;
        driver::ExecutionContext *prev =
            driver::ExecutionContext::makeCurrent(&scratch);
        std::vector<RunResult> results;
        try {
            results = driver::runKernelLineup(
                head.ex.kernel, models, *prep, EnergyModel(),
                /*record_timing=*/false, nullptr, head.ex.bCols);
        } catch (...) {
            driver::ExecutionContext::makeCurrent(prev);
            throw;
        }
        driver::ExecutionContext::makeCurrent(prev);

        for (std::size_t i = 0; i < names.size(); ++i)
            (*memo)[resultMemoKey(head.ex, names[i])] = results[i];
        admission_.noteBatch(batch.size());
    } catch (const std::exception &e) {
        // A failing precompute (unreadable matrix, model error) must
        // not take down requests that would fail with their own
        // message anyway: fall back to solo execution.
        UNISTC_WARN("serve: batch precompute failed (", e.what(),
                    "); running ", batch.size(),
                    " request(s) individually");
        memo->clear();
    }
}

void
ServeCore::runJob(Job &job,
                  const std::map<std::string, RunResult> &memo)
{
    // Per-request warehouse run: bench "unistc_serve", label from the
    // wire, argv recorded as received (docs/WAREHOUSE.md).
    std::vector<std::string> argvRec;
    argvRec.reserve(job.req.argv.size() + 1);
    argvRec.emplace_back("unistc_serve");
    argvRec.insert(argvRec.end(), job.req.argv.begin(),
                   job.req.argv.end());
    warehouse::BenchSink::instance().beginManualRun(
        "unistc_serve", job.req.label, argvRec);

    // The body reports into the response, not the daemon's stdout;
    // a fatal mid-body still leaves its partial text there.
    driver::ExecutionContext ctx;
    ctx.captureReport(&job.resp.output);
    const LogLevel savedLevel = logLevel();

    std::vector<char *> argv;
    argv.reserve(job.args.size());
    for (std::string &arg : job.args)
        argv.push_back(arg.data());
    const int argc = static_cast<int>(argv.size());

    Hooks hooks(*this, memo);
    int rc = 0;
    std::string fatalMessage;
    bool fatal = false;
    {
        ScopedFatalThrow guard;
        try {
            driver::DriverSession session(ctx);
            Experiment &ex = job.ex;
            rc = session.run(job.cli.request, argc, argv.data(),
                             [&ex, &hooks](int, char **) {
                                 return simulateBody(ex, &hooks);
                             });
        } catch (const UnistcError &e) {
            fatal = true;
            fatalMessage = e.status().message();
        } catch (const std::exception &e) {
            fatal = true;
            fatalMessage = e.what();
        }
    }
    setLogLevel(savedLevel);

    if (fatal) {
        job.resp.status = "error";
        job.resp.exitCode = 1;
        job.resp.error = fatalMessage;
    } else {
        job.resp.status = rc == 0 ? "ok" : "error";
        job.resp.exitCode = rc;
        if (rc != 0)
            job.resp.error =
                "body exited " + std::to_string(rc);
    }
    warehouse::BenchSink::instance().finishManualRun(
        counterSnapshot());
}

std::shared_ptr<driver::Prepared>
ServeCore::preparedFor(const std::string &source,
                       const std::function<driver::Prepared()> &build,
                       bool *hit)
{
    for (auto it = preparedLru_.begin(); it != preparedLru_.end();
         ++it) {
        if (it->first == source) {
            preparedLru_.splice(preparedLru_.begin(), preparedLru_,
                                it);
            *hit = true;
            return preparedLru_.front().second;
        }
    }
    *hit = false;
    auto prep = std::make_shared<driver::Prepared>(build());
    preparedLru_.emplace_front(source, prep);
    while (preparedLru_.size() > opt_.preparedCacheCap)
        preparedLru_.pop_back();
    return prep;
}

} // namespace serve
} // namespace unistc
