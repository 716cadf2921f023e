/**
 * @file
 * hostbench: host-time benchmark of the Uni-STC simulator. Normally
 * started through run.py, which builds it; see README.md.
 *
 *   hostbench --workload tab08_sweep|vector_large
 *             --seed N --seconds S --trace 0|1
 *             --serve-bin PATH --digests DIR --out DIR
 *             [--write-digests]
 *
 * --trace 0 measures the end-to-end metrics untraced; --trace 1 is
 * the separate traced run that reports the per-layer metrics and
 * writes a Chrome trace to DIR. Human-readable lines come first; the
 * last stdout line is one JSON object with correct / attempted /
 * failed / metrics.
 */

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/logging.hh"
#include "report.hh"
#include "spans.hh"
#include "sweep.hh"

extern char **environ;

namespace hostbench
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
selfPeakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace hostbench

using namespace hostbench;

namespace
{

// The metric sets BENCHMARK.json declares, with their units; a run
// prints exactly one of them. A name a run does not exercise (the
// serve phase outside vector_large's traced run, no SpGEMM in
// vector_large) is reported as a measured 0.
struct Declared
{
    const char *name;
    const char *unit;
};

const std::vector<Declared> kEndToEnd = {
    {"setup_s", "s"},      {"wall_s", "s"},        {"wall_jobs_s", "s"},
    {"peak_rss_mb", "MB"}, {"paper_err_pct", "%"}};

const std::vector<Declared> kPerLayer = {
    {"corpus.gen_s", "s"},
    {"corpus.matrices", "count"},
    {"corpus.nnz", "count"},
    {"bbc.from_csr_s", "s"},
    {"bbc.blocks", "count"},
    {"runner.plan_s", "s"},
    {"engine.enumerate_s", "s"},
    {"engine.tasks_t1", "count"},
    {"engine.lineup_s", "s"},
    {"engine.ns_per_task", "ns"},
    {"model.DS-STC.self_s", "s"},
    {"model.RM-STC.self_s", "s"},
    {"model.Uni-STC.self_s", "s"},
    {"kernel.SpMV.model_s", "s"},
    {"kernel.SpMSpV.model_s", "s"},
    {"kernel.SpMM.model_s", "s"},
    {"kernel.SpGEMM.model_s", "s"},
    {"sim.finalize_s", "s"},
    {"sim.DS-STC.cycles", "cycles"},
    {"sim.RM-STC.cycles", "cycles"},
    {"sim.Uni-STC.cycles", "cycles"},
    {"sim.DS-STC.util", "ratio"},
    {"sim.RM-STC.util", "ratio"},
    {"sim.Uni-STC.util", "ratio"},
    {"sim.Uni-STC.t3_tasks", "count"},
    {"driver.lineup_calls", "count"},
    {"driver.lineup_s", "s"},
    {"driver.overhead_s", "s"},
    {"exec.speedup", "x"},
    {"exec.efficiency", "ratio"},
    {"serve.setup_s", "s"},
    {"serve.peak_rss_mb", "MB"},
    {"serve.p50_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.rps", "1/s"},
    {"serve.slo_miss_ratio", "ratio"},
    {"serve.lat_p50_ms.spmv", "ms"},
    {"serve.lat_p50_ms.spmspv", "ms"},
    {"serve.lat_p50_ms.spmm", "ms"},
    {"serve.lat_p50_ms.spgemm", "ms"},
    {"serve.prepared_hit_ratio", "ratio"},
    {"serve.batch_share", "ratio"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"serve.oneshot_p50_ms", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.wall_s", "s"},
    {"trace.unattributed_s", "s"},
    {"lineup.p50_ms", "ms"},
    {"lineup.p99_ms", "ms"},
    {"failed_ratio", "ratio"}};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload "
                 "tab08_sweep|vector_large --seed N "
                 "--seconds S --trace 0|1 --serve-bin PATH "
                 "--digests DIR --out DIR [--write-digests]\n",
                 why);
    std::exit(2);
}

/** Shortest text that reads back as exactly @p v. */
std::string
number(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Host:
        return "host";
      case Kind::Sim:
        return "sim";
      case Kind::Count:
        return "count";
    }
    return "?";
}

/** Every UNISTC_* variable steers behaviour; none may leak in. */
void
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("UNISTC_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        ::unsetenv(n.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    scrubEnvironment();
    std::signal(SIGPIPE, SIG_IGN);

    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::atof(value().c_str());
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (arg == "--serve-bin") {
            opt.serveBin = value();
        } else if (arg == "--digests") {
            opt.digestDir = value();
        } else if (arg == "--out") {
            opt.outDir = value();
        } else if (arg == "--write-digests") {
            opt.writeDigests = true;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    const std::set<std::string> workloads = {"tab08_sweep",
                                             "vector_large"};
    if (workloads.count(opt.workload) == 0)
        usage("unknown --workload");
    if (opt.seconds <= 0.0 || opt.digestDir.empty() ||
        opt.outDir.empty() || opt.serveBin.empty())
        usage("missing --seconds, --digests, --out or --serve-bin");
    opt.jobs = static_cast<int>(
        std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
    unistc::setLogLevel(unistc::LogLevel::Warn);

    Report rep;
    SpanRecorder recorder;
    SpanRecorder *rec = opt.trace ? &recorder : nullptr;
    runSweepWorkload(opt, rep, rec);

    if (rec != nullptr) {
        const std::string path = opt.outDir + "/trace-" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".json";
        if (!recorder.writeChromeTrace(path))
            rep.fail(1, "cannot write " + path);
        else
            std::printf("chrome trace: %s\n", path.c_str());
    }
    rep.set("failed_ratio",
            rep.attempted() > 0 ? static_cast<double>(rep.failed()) /
                                      static_cast<double>(rep.attempted())
                                : 0.0,
            "ratio", Kind::Count, rep.attempted());

    const std::vector<Declared> &declared =
        opt.trace ? kPerLayer : kEndToEnd;
    for (const auto &[name, m] : rep.metrics()) {
        std::printf("%-28s %16.6f %-6s n=%-7zu %s\n", name.c_str(),
                    m.value, m.unit.c_str(), m.samples, kindName(m.kind));
    }
    std::string json = "{\"correct\": ";
    json += rep.failed() == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted());
    json += ", \"failed\": " + std::to_string(rep.failed());
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < declared.size(); ++i) {
        const Declared &d = declared[i];
        const auto it = rep.metrics().find(d.name);
        double value = 0.0;
        if (it == rep.metrics().end()) {
            std::printf("%-28s not exercised by %s\n", d.name,
                        opt.workload.c_str());
        } else {
            UNISTC_ASSERT(it->second.unit == d.unit, "metric ", d.name,
                          " measured in ", it->second.unit,
                          ", declared in ", d.unit);
            value = it->second.value;
        }
        json += std::string(i == 0 ? "\"" : ", \"") + d.name +
                "\": {\"value\": " + number(value) + ", \"unit\": \"" +
                d.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
