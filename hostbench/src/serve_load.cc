#include "serve_load.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "check.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "driver/driver_session.hh"
#include "driver/execution_context.hh"
#include "driver/tmpdir.hh"
#include "driver/wire_codec.hh"
#include "serve/sim_service.hh"
#include "stats.hh"
#include "stc/registry.hh"
#include "sweep.hh"

namespace hostbench
{

using namespace unistc;

namespace
{

// Offered open-loop rate, a constant so runs of different commits
// face the same load: about a fifth of the closed-loop capacity
// (~4.8k requests/s over 4 connections on a 4-core machine) of the
// commit that introduced the benchmark. At half capacity a slow phase
// of the shared machine saturated the daemon in one run of five.
constexpr double kOfferedRps = 1000.0;

// Open-loop latency limit; a failed or refused request misses it.
constexpr double kLatencyLimitMs = 25.0;

// Phase lengths, fixed: this phase rides on a traced run.
constexpr double kOpenSeconds = 8.0;
constexpr double kClosedSeconds = 4.0;

constexpr std::size_t kTraceSize = 1000;

// Requests per closed-loop batch (the first five blocks of the
// trace): short batches, many of them, so the best one is quiet.
constexpr std::size_t kClosedBatch = 250;

struct Request
{
    std::vector<std::string> argv; ///< simulate_cli flags.
    Kernel kernel = Kernel::SpMV;
    std::string key; ///< argv joined by '|'.
};

/**
 * The matrix pool: four families at small sizes, so model time
 * cannot dominate the daemon's per-request overhead, and more
 * matrices than its default 8-entry Prepared cache, so skewed
 * popularity makes the cache both hit and miss.
 */
const std::vector<std::string> kPool = {
    "banded:96,3,0.5",   "random:128,0.010", "powerlaw:112,5,2.3",
    "stencil:10",        "banded:160,5,0.4", "random:96,0.015",
    "powerlaw:176,4,2.2", "stencil:13",      "banded:128,2,0.6",
    "random:192,0.008",  "powerlaw:80,6,2.4", "stencil:12",
    "banded:192,4,0.5",  "random:144,0.012"};

Request
makeRequest(Kernel kernel, const std::string &spec,
            const std::vector<std::string> &models)
{
    Request r;
    r.kernel = kernel;
    std::string name = toString(kernel);
    for (char &c : name)
        c = static_cast<char>(std::tolower(c));
    std::string arch;
    for (const std::string &m : models)
        arch += (arch.empty() ? "" : ",") + m;
    r.argv = {"--kernel", name, models.size() > 1 ? "--arch" : "--model",
              arch, "--gen", spec};
    for (const std::string &a : r.argv)
        r.key += (r.key.empty() ? "" : "|") + a;
    return r;
}

/**
 * The request trace, in seed-shuffled blocks of 50 with a fixed mix:
 * 10 Table VIII lineups (--arch DS-STC,RM-STC,Uni-STC) that walk
 * every pool matrix under SpMV, SpMSpV and SpMM in turn, and 40
 * single-model requests — 17 SpMV, 12 SpMSpV, 10 SpMM and 1 SpGEMM,
 * cycling through all seven architectures — on matrices drawn with
 * Zipf popularity in pool order.
 */
std::vector<Request>
makeTrace(std::uint64_t seed)
{
    Rng rng(seed * 104729 + 3);
    const auto shuffle = [&rng](auto &v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.nextBelow(i)]);
    };
    std::vector<double> cumulative;
    double sum = 0.0;
    for (std::size_t i = 0; i < kPool.size(); ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
        cumulative.push_back(sum);
    }
    const std::vector<std::string> all = allModelNames();
    const std::vector<std::string> core = {"DS-STC", "RM-STC",
                                           "Uni-STC"};
    const Kernel lineupKernels[] = {Kernel::SpMV, Kernel::SpMSpV,
                                    Kernel::SpMM};
    std::vector<Request> trace;
    std::size_t lineups = 0;
    while (trace.size() < kTraceSize) {
        std::vector<Request> block;
        for (std::size_t i = 0; i < 10; ++i, ++lineups) {
            block.push_back(makeRequest(
                lineupKernels[(lineups / kPool.size()) % 3],
                kPool[lineups % kPool.size()], core));
        }
        std::vector<Kernel> kernels;
        kernels.insert(kernels.end(), 17, Kernel::SpMV);
        kernels.insert(kernels.end(), 12, Kernel::SpMSpV);
        kernels.insert(kernels.end(), 10, Kernel::SpMM);
        kernels.push_back(Kernel::SpGEMM);
        shuffle(kernels);
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            const double pick = rng.nextDouble(0.0, sum);
            std::size_t rank = 0;
            while (rank + 1 < kPool.size() && cumulative[rank] < pick)
                ++rank;
            block.push_back(makeRequest(kernels[i],
                                        kPool[rank],
                                        {all[i % all.size()]}));
        }
        shuffle(block);
        trace.insert(trace.end(), block.begin(), block.end());
    }
    return trace;
}

/**
 * The one-shot simulate path (what simulate_cli runs) executed in
 * this process with fd 1 captured into a scratch file.
 */
class OneShot
{
  public:
    OneShot()
    {
        Result<std::string> path =
            driver::makeTempFile("hostbench-oneshot-", &fd_);
        if (!path.ok())
            raise(path.status());
        path_ = path.value();
    }
    ~OneShot()
    {
        ::close(fd_);
        std::remove(path_.c_str());
    }
    OneShot(const OneShot &) = delete;
    OneShot &operator=(const OneShot &) = delete;

    /** Output bytes of one run; @p rc gets its exit code. */
    std::string
    run(const std::vector<std::string> &args, int *rc)
    {
        std::vector<std::string> all = {"simulate_cli"};
        all.insert(all.end(), args.begin(), args.end());
        std::vector<char *> argv;
        for (std::string &a : all)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const int argc = static_cast<int>(all.size());
        driver::ParsedCli cli =
            driver::parseSweepCli(argc, argv.data(),
                                  serve::simulateCliFlags())
                .value();
        const serve::Experiment ex = serve::makeExperiment(cli);
        driver::ExecutionContext ctx;

        std::fflush(stdout);
        if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) != 0)
            UNISTC_FATAL("cannot reset ", path_);
        const int saved = ::dup(1);
        ::dup2(fd_, 1);
        {
            driver::DriverSession session(ctx);
            *rc = session.run(cli.request, argc, argv.data(),
                              [&ex](int, char **) {
                                  return serve::simulateBody(ex);
                              });
        }
        std::fflush(stdout);
        ::dup2(saved, 1);
        ::close(saved);

        const off_t size = ::lseek(fd_, 0, SEEK_END);
        std::string out(static_cast<std::size_t>(std::max<off_t>(size, 0)),
                        '\0');
        if (size > 0 && ::pread(fd_, out.data(), out.size(), 0) != size)
            UNISTC_FATAL("cannot read back ", path_);
        return out;
    }

  private:
    int fd_ = -1;
    std::string path_;
};

/** One client connection speaking the NDJSON wire protocol. */
class Conn
{
  public:
    explicit Conn(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    /** False when the connection failed or the daemon hung up. */
    bool
    call(const driver::WireRequest &req, driver::WireResponse *resp)
    {
        if (fd_ < 0)
            return false;
        const std::string line = driver::encodeRequest(req) + "\n";
        for (std::size_t sent = 0; sent < line.size();) {
            const ssize_t n = ::send(fd_, line.data() + sent,
                                     line.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            sent += static_cast<std::size_t>(n);
        }
        std::size_t nl;
        while ((nl = buf_.find('\n')) == std::string::npos) {
            char chunk[8192];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
        Result<driver::WireResponse> decoded =
            driver::decodeResponse(buf_.substr(0, nl));
        buf_.erase(0, nl + 1);
        if (!decoded.ok())
            return false;
        *resp = std::move(decoded).value();
        return true;
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** A unistc_serve child process on a Unix socket. */
class Daemon
{
  public:
    Daemon(const std::string &bin, const std::string &socket)
        : socket_(socket)
    {
        int fds[2];
        if (::pipe(fds) != 0)
            UNISTC_FATAL("pipe: ", std::strerror(errno));
        pid_ = ::fork();
        if (pid_ == 0) {
            // Die with the benchmark even if it exits on a fatal error.
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            ::dup2(fds[1], 1);
            ::close(fds[0]);
            ::close(fds[1]);
            ::execl(bin.c_str(), bin.c_str(), "--socket",
                    socket.c_str(), "--log-level", "warn",
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        ::close(fds[1]);
        if (pid_ < 0)
            UNISTC_FATAL("fork: ", std::strerror(errno));
        // The daemon prints exactly one stdout line once listening.
        std::string line;
        const double deadline = nowSeconds() + 60.0;
        while (line.find('\n') == std::string::npos &&
               nowSeconds() < deadline) {
            pollfd p{fds[0], POLLIN, 0};
            if (::poll(&p, 1, 100) <= 0)
                continue;
            char chunk[256];
            const ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
            if (n <= 0)
                break;
            line.append(chunk, static_cast<std::size_t>(n));
        }
        ::close(fds[0]);
        if (line.rfind("unistc_serve listening on", 0) != 0)
            UNISTC_FATAL("unistc_serve (", bin,
                         ") did not become ready");
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** VmHWM of the daemon, in MB. */
    double
    peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string key;
        while (in >> key) {
            if (key == "VmHWM:") {
                double kb = 0.0;
                in >> kb;
                return kb / 1024.0;
            }
        }
        return 0.0;
    }

    /** Graceful wire shutdown, SIGTERM as the fallback; reaps. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        driver::WireRequest req;
        req.id = "hostbench-shutdown";
        req.op = "shutdown";
        driver::WireResponse resp;
        if (!Conn(socket_).call(req, &resp))
            ::kill(pid_, SIGTERM);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        std::remove(socket_.c_str());
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

std::map<std::string, std::uint64_t>
serveCounters(const std::string &socket)
{
    driver::WireRequest req;
    req.id = "hostbench-stats";
    req.op = "stats";
    driver::WireResponse resp;
    if (!Conn(socket).call(req, &resp))
        return {};
    return resp.counters;
}

std::uint64_t
delta(const std::map<std::string, std::uint64_t> &before,
      const std::map<std::string, std::uint64_t> &after,
      const std::string &key)
{
    const auto b = before.find(key);
    const auto a = after.find(key);
    const std::uint64_t av = a == after.end() ? 0 : a->second;
    const std::uint64_t bv = b == before.end() ? 0 : b->second;
    return av - bv;
}

driver::WireRequest
wireRequest(const Request &r, std::size_t id, int conn)
{
    driver::WireRequest req;
    req.id = "r" + std::to_string(id);
    req.client = "hostbench-" + std::to_string(conn);
    req.argv = r.argv;
    return req;
}

struct Shot
{
    OpenLoopSample s;
    std::size_t request = 0;
    int conn = 0;
};

/**
 * Send requests on a fixed schedule from @p conns threads, each with
 * its own connection; whichever thread is free takes the next due
 * request, so a request is late only when every connection is busy.
 */
std::vector<Shot>
openLoop(const std::string &socket, const std::vector<Request> &trace,
         const std::map<std::string, std::string> &expected, int conns,
         double seconds)
{
    const std::size_t total =
        std::max<std::size_t>(1, static_cast<std::size_t>(kOfferedRps * seconds));
    std::vector<Shot> shots(total);
    std::atomic<std::size_t> next{0};
    const double t0 = nowSeconds() + 0.02;
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            Conn conn(socket);
            for (std::size_t i = next++; i < total; i = next++) {
                Shot &shot = shots[i];
                shot.request = i % trace.size();
                shot.conn = c;
                shot.s.due = t0 + static_cast<double>(i) / kOfferedRps;
                const double wait = shot.s.due - nowSeconds();
                if (wait > 0.0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(wait));
                const Request &r = trace[shot.request];
                driver::WireResponse resp;
                shot.s.sent = nowSeconds();
                const bool answered =
                    conn.call(wireRequest(r, i, c), &resp);
                shot.s.done = nowSeconds();
                shot.s.ok = answered && resp.status == "ok" &&
                            resp.output == expected.at(r.key);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return shots;
}

/** Wall time of the first kClosedBatch requests over @p conns. */
double
closedLoop(const std::string &socket, const std::vector<Request> &trace,
           const std::map<std::string, std::string> &expected, int conns,
           Report &rep)
{
    const std::size_t total = std::min(kClosedBatch, trace.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> bad{0};
    const double t0 = nowSeconds();
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            Conn conn(socket);
            for (std::size_t i = next++; i < total; i = next++) {
                driver::WireResponse resp;
                const Request &r = trace[i];
                if (!conn.call(wireRequest(r, i, c), &resp) ||
                    resp.status != "ok" ||
                    resp.output != expected.at(r.key))
                    ++bad;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double wall = nowSeconds() - t0;
    rep.attempt(total);
    rep.fail(bad.load(), "closed-loop responses differ from one-shot");
    return wall;
}

} // namespace

void
runServePhase(const Options &opt, Report &rep, SpanRecorder *rec)
{
    ScopedSpan phase(rec, "serve");
    const std::vector<Request> trace = makeTrace(opt.seed);
    std::vector<const Request *> distinct;
    {
        std::set<std::string> seen;
        for (const Request &r : trace) {
            if (seen.insert(r.key).second)
                distinct.push_back(&r);
        }
    }
    const std::string socket = opt.outDir + "/serve-" +
                               std::to_string(::getpid()) + ".sock";

    // Set-up: a fresh daemon (empty caches) plus the expected bytes of
    // every distinct request from the one-shot path.
    const double setupStart = nowSeconds();
    std::unique_ptr<Daemon> daemon;
    {
        ScopedSpan d(rec, "serve.daemon_start");
        daemon = std::make_unique<Daemon>(opt.serveBin, socket);
    }
    OneShot oneShot;
    std::map<std::string, std::string> expected;
    std::vector<double> oneShotMs;
    DigestList digests;
    for (std::size_t i = 0; i < distinct.size(); ++i) {
        const Request &req = *distinct[i];
        ScopedSpan o(rec, "serve.oneshot", i);
        int rc = 0;
        const double s0 = nowSeconds();
        std::string out = oneShot.run(req.argv, &rc);
        oneShotMs.push_back(1e3 * (nowSeconds() - s0));
        if (rc != 0)
            rep.fail(1, "one-shot run failed: " + req.key);
        digests.push_back({req.key, textDigest(out)});
        expected[req.key] = std::move(out);
    }
    const double setup = nowSeconds() - setupStart;
    verifyDigests(opt, "serve", digests, rep);

    const int conns = opt.jobs;

    // Open loop.
    const auto before = serveCounters(socket);
    std::vector<Shot> shots;
    {
        ScopedSpan s(rec, "serve.open_loop");
        shots = openLoop(socket, trace, expected, conns, kOpenSeconds);
        if (rec != nullptr) {
            const double base = nowSeconds() - rec->now();
            for (std::size_t i = 0; i < shots.size(); ++i)
                rec->add("serve.request", shots[i].s.sent - base,
                         shots[i].s.done - base, i, shots[i].conn + 1);
        }
    }
    const auto after = serveCounters(socket);
    // Read here, after a fixed number of requests: the daemon keeps
    // every result in its per-client contexts, so its footprint grows
    // with requests served, and the closed loop serves a varying number.
    const double rss = daemon->peakRssMb();
    std::vector<OpenLoopSample> samples;
    std::map<Kernel, std::vector<double>> byKernel;
    for (const Shot &shot : shots) {
        samples.push_back(shot.s);
        byKernel[trace[shot.request].kernel].push_back(
            1e3 * (shot.s.done - shot.s.due));
    }
    const OpenLoopSummary open =
        summarizeOpenLoop(samples, kLatencyLimitMs);
    std::size_t openFailed = 0;
    for (const OpenLoopSample &s : samples)
        openFailed += s.ok ? 0 : 1;
    rep.attempt(samples.size());
    rep.fail(openFailed,
             "open-loop responses failed or differ from one-shot");

    // Closed loop over min(4, nproc) connections, best of N.
    std::vector<double> walls;
    {
        ScopedSpan s(rec, "serve.closed_loop");
        const double start = nowSeconds();
        while (walls.size() < 2 || nowSeconds() - start < kClosedSeconds)
            walls.push_back(closedLoop(socket, trace, expected, conns, rep));
    }
    daemon->stop();

    // Windows of 1000 samples: enough for a p99 with ten beyond it.
    // The median over windows shrugs off the odd stall of the shared
    // machine.
    constexpr std::size_t kWindow = 1000;
    const std::size_t batch = std::min(kClosedBatch, trace.size());
    const std::size_t n = open.latencyMs.size();
    rep.set("serve.setup_s", setup, "s", Kind::Host);
    rep.set("serve.peak_rss_mb", rss, "MB", Kind::Host);
    rep.set("serve.p50_ms", percentile(open.latencyMs, 0.5), "ms",
            Kind::Host, n);
    rep.set("serve.p99_ms", windowedPercentile(samples, kWindow, 0.99),
            "ms", Kind::Host, n);
    rep.set("serve.slo_miss_ratio",
            static_cast<double>(open.missed) / static_cast<double>(open.sent),
            "ratio", Kind::Host, open.sent);
    rep.set("serve.rps",
            static_cast<double>(batch) /
                *std::min_element(walls.begin(), walls.end()),
            "1/s", Kind::Host, walls.size());
    for (const Kernel k : allKernels()) {
        std::string name = toString(k);
        for (char &c : name)
            c = static_cast<char>(std::tolower(c));
        rep.set("serve.lat_p50_ms." + name, median(byKernel[k]), "ms",
                Kind::Host, byKernel[k].size());
    }
    const std::uint64_t hits =
        delta(before, after, "robust.serve_prepared_hits");
    const std::uint64_t lookups =
        hits + delta(before, after, "robust.serve_prepared_misses");
    const std::uint64_t completed =
        delta(before, after, "robust.serve_completed");
    rep.set("serve.prepared_hit_ratio",
            lookups > 0 ? static_cast<double>(hits) /
                              static_cast<double>(lookups)
                        : 0.0,
            "ratio", Kind::Host, lookups);
    rep.set("serve.batch_share",
            completed > 0
                ? static_cast<double>(delta(
                      before, after, "robust.serve_batched_requests")) /
                      static_cast<double>(completed)
                : 0.0,
            "ratio", Kind::Host, completed);
    std::uint64_t rejected = 0;
    for (const char *key :
         {"robust.serve_rejected_queue_full", "robust.serve_rejected_quota",
          "robust.serve_rejected_malformed",
          "robust.serve_rejected_unsupported"})
        rejected += delta(before, after, key);
    rep.set("serve.rejected", static_cast<double>(rejected), "count",
            Kind::Count);
    rep.set("serve.errors",
            static_cast<double>(delta(before, after, "robust.serve_failed")),
            "count", Kind::Count);
    rep.set("serve.oneshot_p50_ms", median(oneShotMs), "ms", Kind::Host,
            oneShotMs.size());
    rep.set("loadgen.late_p99_ms", percentile(open.lateMs, 0.99), "ms",
            Kind::Host, open.lateMs.size());
    std::printf("serve: %zu distinct of %zu trace requests, %zu open-loop "
                "at %.0f/s over %d connections (limit %.0f ms), %zu "
                "closed-loop batches of %zu\n",
                distinct.size(), trace.size(), samples.size(), kOfferedRps,
                conns, kLatencyLimitMs, walls.size(), batch);
}

} // namespace hostbench
