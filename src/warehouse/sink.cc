#include "warehouse/sink.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>

#include "common/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
extern char **environ;
#define UNISTC_SINK_HAVE_ENVIRON 1
#else
#define UNISTC_SINK_HAVE_ENVIRON 0
#endif

namespace unistc
{
namespace warehouse
{

namespace
{

std::string
isoUtcNow()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
#if defined(_WIN32)
    gmtime_s(&tm, &now);
#else
    gmtime_r(&now, &tm);
#endif
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

std::string
baseName(const char *argv0)
{
    std::string s = argv0 != nullptr ? argv0 : "bench";
    const std::size_t slash = s.find_last_of("/\\");
    return slash == std::string::npos ? s : s.substr(slash + 1);
}

/** UNISTC_* environment, sorted for a deterministic META. */
std::vector<std::pair<std::string, std::string>>
capturedEnv()
{
    std::vector<std::pair<std::string, std::string>> out;
#if UNISTC_SINK_HAVE_ENVIRON
    for (char **e = environ; e != nullptr && *e != nullptr; ++e) {
        const char *eq = std::strchr(*e, '=');
        if (eq == nullptr)
            continue;
        const std::string key(*e, eq - *e);
        if (key.rfind("UNISTC_", 0) != 0)
            continue;
        out.emplace_back(key, std::string(eq + 1));
    }
    std::sort(out.begin(), out.end());
#endif
    return out;
}

/** Shared open-time options: environment + identity fields. */
RunWriterOptions
makeOptions(const std::string &bench, const std::string &label,
            const std::vector<std::string> &argv)
{
    RunWriterOptions opt;
    opt.dir = std::getenv("UNISTC_WAREHOUSE_DIR");
    opt.bench = bench;
    opt.label = label;
    if (opt.label.empty()) {
        if (const char *env = std::getenv("UNISTC_WAREHOUSE_LABEL"))
            opt.label = env;
    }
    if (const char *sha = std::getenv("UNISTC_GIT_SHA"))
        opt.gitSha = sha;
    opt.timeIso = isoUtcNow();
    opt.argv = argv;
    opt.env = capturedEnv();
    if (const char *fsync = std::getenv("UNISTC_WAREHOUSE_FSYNC"))
        opt.fsyncEvery = parseFsyncEnv(fsync, opt.fsyncEvery);
    return opt;
}

} // namespace

int
parseFsyncEnv(const char *text, int fallback)
{
    if (text == nullptr || *text == '\0')
        return fallback;
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE || v < 0 ||
        v > std::numeric_limits<int>::max()) {
        UNISTC_WARN("ignoring bad UNISTC_WAREHOUSE_FSYNC '", text,
                    "' (want a non-negative integer; 0 = fsync only "
                    "at commit); keeping ", fallback);
        return fallback;
    }
    return static_cast<int>(v);
}

BenchSink &
BenchSink::instance()
{
    // Intentionally leaked, like ResultLog: the atexit finalize hook
    // must outlive static destruction.
    static BenchSink *sink = new BenchSink();
    return *sink;
}

void
BenchSink::configure(int argc, char **argv)
{
    std::lock_guard<std::mutex> lock(mu_);
    // Manual mode: the serve daemon opens one run per request via
    // beginManualRun(); the per-request DriverSession must not grab
    // a process-wide run here.
    if (configured_ || manual_)
        return;
    configured_ = true;
    const char *dir = std::getenv("UNISTC_WAREHOUSE_DIR");
    if (dir == nullptr || *dir == '\0')
        return;

    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i)
        args.emplace_back(argv[i]);
    const RunWriterOptions opt = makeOptions(
        baseName(argc > 0 ? argv[0] : nullptr), "", args);

    auto writer = RunWriter::open(opt);
    if (!writer.ok()) {
        UNISTC_WARN("warehouse sink disabled: ",
                    writer.status().message());
        return;
    }
    writer_ = std::move(writer).value();
    UNISTC_INFORM("warehouse run ", writer_->runId(), " -> ",
                  writer_->runDir());
    std::atexit([] { BenchSink::instance().finalize(); });
}

void
BenchSink::record(const std::string &kernel, const std::string &model,
                  const std::string &matrix, const RunResult &result)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (writer_ == nullptr)
        return;
    ResultRow row;
    row.kernel = kernel;
    row.model = model;
    row.matrix = matrix;
    row.result = result;
    writer_->appendResult(row);
}

void
BenchSink::recordEngine(const std::string &kernel,
                        const std::string &matrix,
                        const PipelineCounters &counters, bool timed)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (writer_ == nullptr)
        return;
    EngineRow row;
    row.kernel = kernel;
    row.matrix = matrix;
    row.counters = counters;
    row.timed = timed;
    if (!timed) {
        // Untimed passes carry wall-clock noise in these fields;
        // zeroing them keeps row content identical across --jobs
        // worker counts and repeat runs.
        row.counters.enumerateSeconds = 0.0;
        row.counters.modelSeconds = 0.0;
    }
    writer_->appendEngine(row);
}

void
BenchSink::setManual(bool on)
{
    std::lock_guard<std::mutex> lock(mu_);
    manual_ = on;
}

void
BenchSink::beginManualRun(const std::string &bench,
                          const std::string &label,
                          const std::vector<std::string> &argv)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (writer_ != nullptr)
        finalizeLocked();
    const char *dir = std::getenv("UNISTC_WAREHOUSE_DIR");
    if (dir == nullptr || *dir == '\0')
        return;
    auto writer = RunWriter::open(makeOptions(bench, label, argv));
    if (!writer.ok()) {
        UNISTC_WARN("warehouse sink disabled: ",
                    writer.status().message());
        return;
    }
    writer_ = std::move(writer).value();
    UNISTC_INFORM("warehouse run ", writer_->runId(), " -> ",
                  writer_->runDir());
    if (!configured_) {
        // Crash safety: an unexpected daemon death still seals the
        // run that was open at the time.
        configured_ = true;
        std::atexit([] { BenchSink::instance().finalize(); });
    }
}

void
BenchSink::finishManualRun(
    const std::map<std::string, std::uint64_t> &counters)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (writer_ == nullptr)
        return;
    for (const auto &kv : counters)
        writer_->noteCounter(kv.first, kv.second);
    finalizeLocked();
}

void
BenchSink::finalize()
{
    std::lock_guard<std::mutex> lock(mu_);
    finalizeLocked();
}

void
BenchSink::finalizeLocked()
{
    if (writer_ == nullptr)
        return;
    if (Status s = writer_->finalize(); !s.ok())
        UNISTC_WARN("warehouse commit failed: ", s.message());
    writer_.reset();
}

std::string
BenchSink::runId() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return writer_ != nullptr ? writer_->runId() : std::string();
}

} // namespace warehouse
} // namespace unistc
