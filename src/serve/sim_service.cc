#include "serve/sim_service.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "bbc/bbc_io.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "corpus/generators.hh"
#include "driver/execution_context.hh"
#include "obs/metrics_export.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "runner/report.hh"
#include "sparse/io.hh"
#include "stc/registry.hh"

namespace unistc
{
namespace serve
{

namespace
{

/** Strict integer option parsing: the whole value must be a number. */
int
parseIntOpt(const std::string &flag, const std::string &text)
{
    try {
        std::size_t used = 0;
        const int v = std::stoi(text, &used);
        if (used != text.size())
            throw std::invalid_argument(text);
        return v;
    } catch (const std::exception &) {
        UNISTC_FATAL("--", flag, " needs an integer, got '", text,
                     "'");
    }
}

/**
 * Parse --arch's comma-separated lineup; an unknown name fails with
 * the full list of available architectures.
 */
std::vector<std::string>
parseArchList(const std::string &list)
{
    std::vector<std::string> names;
    std::size_t begin = 0;
    for (;;) {
        const std::size_t comma = list.find(',', begin);
        const std::string name = comma == std::string::npos
            ? list.substr(begin)
            : list.substr(begin, comma - begin);
        if (name.empty())
            UNISTC_FATAL("--arch has an empty entry in '", list, "'");
        names.push_back(name);
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    const std::vector<std::string> all = allModelNames();
    std::string available;
    for (const std::string &n : all)
        available += (available.empty() ? "" : ", ") + n;
    for (const std::string &name : names) {
        if (std::find(all.begin(), all.end(), name) == all.end()) {
            UNISTC_FATAL("unknown architecture '", name,
                         "' in --arch (available: ", available, ")");
        }
    }
    return names;
}

} // namespace

std::vector<driver::CliFlag>
simulateCliFlags()
{
    return {
        {"matrix", true, "PATH", "Matrix Market input"},
        {"gen", true, "SPEC",
         "synthetic input: banded:n,hb,fill | random:n,density | "
         "powerlaw:n,deg,alpha | stencil:grid"},
        {"kernel", true, "NAME",
         "spmv | spmspv | spmm | spgemm (default spmv)"},
        {"model", true, "NAME",
         "an architecture name or 'all' (default all)"},
        {"arch", true, "A,B,C",
         "architecture lineup run as ONE multi-model job over a "
         "shared task stream (docs/ARCHITECTURE.md)"},
        {"precision", true, "P", "fp64 | fp32 (default fp64)"},
        {"dpgs", true, "N", "Uni-STC DPG count (default 8)"},
        {"bcols", true, "N", "SpMM dense-B width (default 64)"},
        {"save-bbc", true, "PATH", "write the encoded BBC file"},
        {"trace", true, "PATH",
         "write a Chrome trace-event JSON (Perfetto)"},
        {"trace-events", true, "N",
         "per-model trace ring capacity (default 65536)"},
        {"stats-json", true, "PATH",
         "write all run statistics as JSON"},
    };
}

Experiment
makeExperiment(driver::ParsedCli &cli)
{
    Experiment ex;
    ex.opts = cli.extra;
    ex.kernelName =
        ex.opts.count("kernel") ? ex.opts["kernel"] : "spmv";
    if (ex.kernelName == "spmv")
        ex.kernel = Kernel::SpMV;
    else if (ex.kernelName == "spmspv")
        ex.kernel = Kernel::SpMSpV;
    else if (ex.kernelName == "spmm")
        ex.kernel = Kernel::SpMM;
    else if (ex.kernelName == "spgemm")
        ex.kernel = Kernel::SpGEMM;
    else
        UNISTC_FATAL("unknown kernel '", ex.kernelName, "'");

    const std::string precision = ex.opts.count("precision")
        ? ex.opts["precision"] : "fp64";
    if (precision == "fp32")
        ex.cfg = MachineConfig::fp32();
    else if (precision == "fp64")
        ex.cfg = MachineConfig::fp64();
    else
        UNISTC_FATAL("unknown --precision '", precision,
                     "' (use fp64|fp32)");
    if (ex.opts.count("dpgs"))
        ex.cfg.numDpgs = parseIntOpt("dpgs", ex.opts["dpgs"]);
    if (ex.opts.count("bcols"))
        ex.bCols = parseIntOpt("bcols", ex.opts["bcols"]);

    ex.multi = ex.opts.count("arch") != 0;
    if (ex.multi && ex.opts.count("model"))
        UNISTC_FATAL("--model and --arch are mutually exclusive");
    const std::string model_name =
        ex.opts.count("model") ? ex.opts["model"] : "all";
    if (ex.multi)
        ex.names = parseArchList(ex.opts["arch"]);
    else if (model_name == "all")
        ex.names = allModelNames();
    else
        ex.names.push_back(model_name);

    if (ex.opts.count("trace")) {
        // A --trace run goes through the executor's plan/replay path
        // even at --jobs 1, so the trace has the same structure for
        // any worker count.
        cli.request.traceJobCapacity = TraceSink::kDefaultCapacity;
        if (ex.opts.count("trace-events")) {
            const int n =
                parseIntOpt("trace-events", ex.opts["trace-events"]);
            if (n <= 0) {
                UNISTC_FATAL("--trace-events needs a positive count, "
                             "got ", n);
            }
            cli.request.traceJobCapacity =
                static_cast<std::size_t>(n);
        }
    }
    return ex;
}

std::string
sourceLabel(const Experiment &ex)
{
    const auto it_m = ex.opts.find("matrix");
    if (it_m != ex.opts.end())
        return it_m->second;
    const auto it_g = ex.opts.find("gen");
    if (it_g != ex.opts.end())
        return it_g->second;
    return "banded:1024,16,0.4";
}

std::string
resultMemoKey(const Experiment &ex, const std::string &model)
{
    return ex.kernelName + '|' + model + '|' + sourceLabel(ex) + '|' +
           toString(ex.cfg.precision) + '|' +
           std::to_string(ex.cfg.numDpgs) + '|' +
           std::to_string(ex.bCols);
}

driver::Prepared
buildPrepared(const Experiment &ex)
{
    const auto opt = [&ex](const std::string &key) {
        const auto it = ex.opts.find(key);
        return it == ex.opts.end() ? std::string() : it->second;
    };
    CsrMatrix a;
    if (ex.opts.count("matrix"))
        a = readMatrixMarketFile(opt("matrix"));
    else if (ex.opts.count("gen"))
        a = generateFromSpec(opt("gen"));
    else
        a = genBanded(1024, 16, 0.4, 1);
    SparseVector x50(a.cols());
    Rng rng(7);
    for (int i = 0; i < a.cols(); ++i) {
        if (rng.nextBool(0.5))
            x50.push(i, 1.0);
    }
    return driver::Prepared(sourceLabel(ex), std::move(a),
                            std::move(x50));
}

const driver::Prepared &
ServeHooks::prepared(const std::string &,
                     const std::function<driver::Prepared()> &build)
{
    owned_.push_back(
        std::make_unique<driver::Prepared>(build()));
    return *owned_.back();
}

bool
ServeHooks::lookupResult(const std::string &, RunResult *)
{
    return false;
}

/**
 * The simulation body a DriverSession drives: with --jobs it runs
 * twice (silenced plan pass, then the reporting replay pass). Report
 * text goes through driver::report/reportf, which drop it on the
 * silenced passes; any other side effect beyond runKernel() calls
 * must be guarded on ExecutionContext::reportingPass().
 */
int
simulateBody(const Experiment &ex, ServeHooks *hooks)
{
    ServeHooks oneShot;
    if (hooks == nullptr)
        hooks = &oneShot;
    const std::map<std::string, std::string> &opts = ex.opts;
    driver::ExecutionContext &ctx =
        driver::ExecutionContext::active();
    const auto opt = [&opts](const std::string &key) {
        const auto it = opts.find(key);
        return it == opts.end() ? std::string() : it->second;
    };

    const std::string source_label = sourceLabel(ex);
    // The Prepared name keys ResultLog and warehouse rows, so it is
    // the stable source label (buildPrepared), not a per-run string.
    const driver::Prepared &prep =
        hooks->prepared(source_label,
                        [&ex]() { return buildPrepared(ex); });
    if (ex.kernel == Kernel::SpGEMM && prep.csr.rows() !=
        prep.csr.cols())
        UNISTC_FATAL("spgemm (C = A^2) needs a square matrix");

    driver::reportf("Matrix: %d x %d, %lld nonzeros\n", prep.csr.rows(),
                    prep.csr.cols(),
                    static_cast<long long>(prep.csr.nnz()));
    driver::reportf("BBC: %lld blocks, NnzPB %.2f, %s\n\n",
                    static_cast<long long>(prep.bbc.numBlocks()),
                    prep.bbc.nnzPerBlock(),
                    fmtBytes(prep.bbc.storageBytes(
                                 ex.cfg.bytesPerValue())).c_str());
    if (opts.count("save-bbc")) {
        if (ctx.reportingPass())
            saveBbcFile(opt("save-bbc"), prep.bbc);
        driver::reportf("Saved BBC image to %s\n\n",
                        opt("save-bbc").c_str());
    }

    StatRegistry stats;
    stats.setText("kernel", ex.kernelName, "simulated kernel");
    stats.setText("matrix.source", source_label,
                  "matrix input path or generator spec");
    stats.setCounter("matrix.rows",
                     static_cast<std::uint64_t>(prep.csr.rows()));
    stats.setCounter("matrix.cols",
                     static_cast<std::uint64_t>(prep.csr.cols()));
    stats.setCounter("matrix.nnz",
                     static_cast<std::uint64_t>(prep.csr.nnz()));
    stats.setCounter("matrix.bbcBlocks",
                     static_cast<std::uint64_t>(prep.bbc.numBlocks()));
    registerMachineConfig(stats, ex.cfg);

    std::vector<std::unique_ptr<const StcModel>> owned;
    owned.reserve(ex.names.size());
    for (const std::string &name : ex.names)
        owned.emplace_back(makeStcModel(name, ex.cfg));

    // --arch runs its whole lineup as ONE unit: the engine enumerates
    // the task stream once and fans every task out to all listed
    // models (docs/ARCHITECTURE.md). --model runs one unit per model
    // — unless the serve batcher already computed it in a shared
    // lineup pass, in which case the bit-identical result is spliced
    // in and recorded exactly like runKernel() would have.
    std::vector<RunResult> results(ex.names.size());
    PipelineCounters engine_counters;
    if (ex.multi) {
        std::vector<const StcModel *> models;
        models.reserve(owned.size());
        for (const auto &m : owned)
            models.push_back(m.get());
        results = driver::runKernelLineup(
            ex.kernel, models, prep, EnergyModel(),
            /*record_timing=*/false, &engine_counters, ex.bCols);
    } else {
        for (std::size_t n = 0; n < ex.names.size(); ++n) {
            RunResult memoed;
            if (hooks->lookupResult(resultMemoKey(ex, ex.names[n]),
                                    &memoed)) {
                results[n] = memoed;
                ctx.results().record(ex.kernel, ex.names[n],
                                     prep.name, memoed);
                continue;
            }
            results[n] = driver::runKernel(ex.kernel, *owned[n], prep,
                                           EnergyModel(), ex.bCols);
        }
    }

    TextTable t("Kernel '" + ex.kernelName + "' @ " +
                toString(ex.cfg.precision) + ", " +
                std::to_string(ex.cfg.macCount) + " MACs");
    t.setHeader({"STC", "cycles", "MAC util", "energy", "A reads",
                 "C writes"});
    for (std::size_t i = 0; i < ex.names.size(); ++i) {
        const RunResult &r = results[i];
        registerRunResult(stats, r, "models." + ex.names[i] + ".");
        t.addRow({ex.names[i], fmtCount(r.cycles), fmtPercent(r.utilisation()),
                  fmtEnergyPj(r.energy.total()),
                  fmtCount(r.traffic.totalA()),
                  fmtCount(r.traffic.writesC)});
    }
    driver::report(t.render());

    if (ex.multi) {
        // One shared stream fed the whole lineup; tasks_generated is
        // the single-model enumeration count while models_fanout
        // models consumed it. Timing fields stay out so the stats
        // JSON is byte-identical across --jobs counts and reruns.
        engine_counters.registerStats(stats, "engine.",
                                      /*includeTiming=*/false);
    }
    // Reporting artifacts (trace, stats JSON) are written exactly
    // once, by the reporting pass — never by the silenced plan pass.
    if (ctx.reportingPass()) {
        const TraceSink *trace = ctx.runTrace();
        const bool wrote_trace =
            trace != nullptr && opts.count("trace") != 0;
        if (wrote_trace) {
            trace->writeChromeTraceFile(opt("trace"));
            registerTraceSinkStats(stats, *trace);
            driver::reportf("\nTrace: %s (%llu events, %llu dropped)\n",
                            opt("trace").c_str(),
                            static_cast<unsigned long long>(
                                trace->size()),
                            static_cast<unsigned long long>(
                                trace->dropped()));
        }
        if (opts.count("stats-json")) {
            writeStatsJsonFile(stats, opt("stats-json"));
            driver::reportf("%sStats: %s\n", wrote_trace ? "" : "\n",
                            opt("stats-json").c_str());
        }
    }
    return 0;
}

} // namespace serve
} // namespace unistc
