#include "sweep.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>

#include "check.hh"
#include "corpus/generators.hh"
#include "corpus/representative.hh"
#include "corpus/suite.hh"
#include "driver/driver_session.hh"
#include "driver/execution_context.hh"
#include "driver/sweep_request.hh"
#include "engine/kernel_pipeline.hh"
#include "runner/block_driver.hh"
#include "serve_load.hh"
#include "stats.hh"
#include "stc/registry.hh"

namespace hostbench
{

using namespace unistc;
using driver::Prepared;

namespace
{

/** One (kernel, matrix, lineup) simulation: one runKernelLineup call. */
struct Unit
{
    Kernel kernel = Kernel::SpMV;
    const Prepared *p = nullptr;
    std::vector<const StcModel *> models;
    std::string key; ///< Stable id for digests: kernel|matrix.
};

struct PassResult
{
    double wall = 0.0;
    std::vector<double> unitSeconds; ///< Serial passes only.
    std::vector<std::vector<RunResult>> results;
    double engineSeconds = 0.0; ///< Pipeline counters (driver pass).
};

/** The Table VIII lineup every sweep unit runs. */
const char *const kLineup[] = {"DS-STC", "RM-STC", "Uni-STC"};

driver::SweepRequest
requestFor(int jobs)
{
    std::string n = std::to_string(jobs);
    char name[] = "hostbench";
    char flag[] = "--jobs";
    char *argv[] = {name, flag, n.data(), nullptr};
    return driver::parseSweepCli(3, argv).value().request;
}

std::vector<NamedMatrix>
generate(const std::string &workload, std::uint64_t seed)
{
    if (workload == "tab08_sweep") {
        std::vector<NamedMatrix> suite = syntheticSuite(2, seed);
        for (NamedMatrix &nm : representativeMatrices())
            suite.push_back(std::move(nm));
        return suite;
    }
    // vector_large: ~5.7M nonzeros whose blocks SpMV/SpMSpV each
    // touch once, so set-up and enumeration weigh as much as models.
    const std::uint64_t s = seed * 16;
    std::vector<NamedMatrix> out;
    out.push_back({"banded_200k", genBanded(200000, 12, 0.6, s + 1)});
    out.push_back({"powerlaw_100k", genPowerLaw(100000, 16.0, 2.3, s + 2)});
    out.push_back({"random_30k",
                   genRandomUniform(30000, 30000, 5e-4, s + 3)});
    out.push_back({"stencil_350", genStencil2d(350)});
    return out;
}

struct Corpus
{
    std::vector<std::unique_ptr<Prepared>> mats;
    std::uint64_t nnz = 0;
    std::uint64_t blocks = 0;
};

Corpus
buildCorpus(const std::string &workload, std::uint64_t seed,
            SpanRecorder *rec)
{
    std::vector<NamedMatrix> raw;
    {
        ScopedSpan s(rec, "corpus.gen");
        raw = generate(workload, seed);
    }
    Corpus c;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        ScopedSpan s(rec, "bbc.from_csr", i);
        c.mats.push_back(std::make_unique<Prepared>(
            raw[i].name, std::move(raw[i].matrix)));
        c.nnz += static_cast<std::uint64_t>(c.mats.back()->csr.nnz());
        c.blocks +=
            static_cast<std::uint64_t>(c.mats.back()->bbc.numBlocks());
    }
    return c;
}

/** Per-layer totals the instrumented pass gathers outside spans. */
struct TracedTotals
{
    std::uint64_t tasks = 0;
    std::map<std::string, double> kernelModelSeconds;
};

PassResult
tracedPass(const std::vector<Unit> &units, SpanRecorder &rec,
           TracedTotals *totals)
{
    using Clock = std::chrono::steady_clock;
    const auto secs = [](Clock::duration d) {
        return std::chrono::duration<double>(d).count();
    };
    PassResult out;
    out.results.resize(units.size());
    const EnergyModel energy;
    const double t0 = nowSeconds();
    for (std::size_t i = 0; i < units.size(); ++i) {
        const Unit &u = units[i];
        const std::size_t n = u.models.size();
        ScopedSpan unitSpan(&rec, "unit", i);
        // The same operands driver::runKernelLineup hands the plan.
        PlanInputs in;
        in.a = &u.p->bbc;
        in.b = &u.p->bbc;
        in.x = &u.p->x50;
        KernelPlanPtr plan;
        {
            ScopedSpan s(&rec, "runner.plan", i);
            plan = makeKernelPlan(u.kernel, in);
        }
        std::vector<RunResult> res(n);
        {
            ScopedSpan s(&rec, "engine.lineup", i);
            const auto stream = plan->stream();
            std::vector<Clock::duration> model(n);
            Clock::duration enumerate{};
            StreamedTask item;
            auto t = Clock::now();
            for (;;) {
                const bool more = stream->next(item);
                auto t1 = Clock::now();
                enumerate += t1 - t;
                t = t1;
                if (!more)
                    break;
                for (std::size_t m = 0; m < n; ++m) {
                    u.models[m]->runBlock(item.task, res[m], nullptr);
                    t1 = Clock::now();
                    model[m] += t1 - t;
                    t = t1;
                }
                ++totals->tasks;
            }
            rec.charge("engine.enumerate", secs(enumerate));
            for (std::size_t m = 0; m < n; ++m) {
                rec.charge("model." + u.models[m]->name(),
                           secs(model[m]));
                totals->kernelModelSeconds[toString(u.kernel)] +=
                    secs(model[m]);
            }
        }
        {
            ScopedSpan s(&rec, "sim.finalize", i);
            for (std::size_t m = 0; m < n; ++m)
                finalizeRun(*u.models[m], energy, res[m]);
        }
        out.results[i] = std::move(res);
    }
    out.wall = nowSeconds() - t0;
    return out;
}

double
lookup(const std::map<std::string, double> &m, const std::string &k)
{
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

/**
 * Run @p units through driver::runKernelLineup under a DriverSession
 * with @p jobs workers. With @p rec, each call gets a driver.lineup
 * span and its pipeline counters are summed into engineSeconds.
 */
PassResult
runDriverPass(const std::vector<Unit> &units, int jobs,
              SpanRecorder *rec = nullptr)
{
    PassResult out;
    driver::ExecutionContext ctx;
    driver::DriverSession session(ctx);
    char name[] = "hostbench";
    char *argv[] = {name, nullptr};
    const double t0 = nowSeconds();
    // Under --jobs the body runs twice (plan, then replay); the
    // replay's results are the ones left in `out`.
    session.run(requestFor(jobs), 1, argv, [&](int, char **) {
        out.results.assign(units.size(), {});
        out.unitSeconds.clear();
        out.engineSeconds = 0.0;
        for (std::size_t i = 0; i < units.size(); ++i) {
            const Unit &u = units[i];
            PipelineCounters counters;
            ScopedSpan span(rec, "driver.lineup", i);
            const double s0 = nowSeconds();
            out.results[i] = driver::runKernelLineup(
                u.kernel, u.models, *u.p, EnergyModel(), false,
                rec != nullptr ? &counters : nullptr);
            out.unitSeconds.push_back(nowSeconds() - s0);
            out.engineSeconds +=
                counters.enumerateSeconds + counters.modelSeconds;
        }
        return 0;
    });
    out.wall = nowSeconds() - t0;
    return out;
}

/** Units whose results differ between @p a and @p b. */
std::size_t
countDifferences(const PassResult &a, const PassResult &b)
{
    if (a.results.size() != b.results.size())
        return std::max(a.results.size(), b.results.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        if (a.results[i].size() != b.results[i].size() ||
            lineupDigest(a.results[i]) != lineupDigest(b.results[i]))
            ++bad;
    }
    return bad;
}

/**
 * The traced run's per-layer measurement over @p units: an untraced
 * serial pass, the instrumented pass and a spanned driver pass. Sets
 * the runner/engine/model/kernel/sim/driver/trace metrics, checks the
 * instrumented and driver passes against the untraced results, and
 * returns the untraced pass.
 */
PassResult
measureLayers(const std::vector<Unit> &units, SpanRecorder &rec,
              Report &rep)
{
    PassResult base;
    {
        ScopedSpan s(&rec, "sweep.untraced");
        base = runDriverPass(units, 1);
    }
    TracedTotals totals;
    const int root = rec.begin("sweep.traced");
    const PassResult traced = tracedPass(units, rec, &totals);
    rec.end(root);
    PassResult drv;
    {
        ScopedSpan s(&rec, "sweep.driver");
        drv = runDriverPass(units, 1, &rec);
    }
    rep.attempt(2 * units.size());
    rep.fail(countDifferences(base, traced),
             "instrumented pass differs from driver::runKernelLineup");
    rep.fail(countDifferences(base, drv),
             "counted driver pass differs from the untraced pass");

    const std::map<std::string, double> self = rec.selfTimes(root);
    const double wall = rec.duration(root);
    const double unattributed =
        lookup(self, "sweep.traced") + lookup(self, "unit");
    double layers = 0.0;
    std::printf("traced pass: %.6f s wall, self time by layer:\n",
                wall);
    for (const auto &[name, secs] : self) {
        std::printf("  %-24s %12.6f s\n", name.c_str(), secs);
        layers += secs;
    }
    std::printf("  %-24s %12.6f s (layers + unattributed)\n", "sum",
                layers);

    const double lineup = rec.total("engine.lineup");
    rep.set("trace.wall_s", wall, "s", Kind::Host);
    rep.set("trace.unattributed_s", unattributed, "s", Kind::Host);
    rep.set("trace.overhead_pct", 100.0 * (traced.wall / base.wall - 1.0),
            "%", Kind::Host);
    rep.set("runner.plan_s", lookup(self, "runner.plan"), "s",
            Kind::Host, units.size());
    rep.set("engine.enumerate_s", lookup(self, "engine.enumerate"), "s",
            Kind::Host, units.size());
    rep.set("engine.tasks_t1", static_cast<double>(totals.tasks),
            "count", Kind::Count);
    rep.set("engine.lineup_s", lineup, "s", Kind::Host, units.size());
    rep.set("engine.ns_per_task",
            totals.tasks > 0
                ? 1e9 * lineup / static_cast<double>(totals.tasks)
                : 0.0,
            "ns", Kind::Host, units.size());
    for (const char *m : kLineup)
        rep.set(std::string("model.") + m + ".self_s",
                lookup(self, std::string("model.") + m), "s",
                Kind::Host, units.size());
    for (const Kernel k : allKernels())
        rep.set(std::string("kernel.") + toString(k) + ".model_s",
                lookup(totals.kernelModelSeconds, toString(k)), "s",
                Kind::Host);
    rep.set("sim.finalize_s", lookup(self, "sim.finalize"), "s",
            Kind::Host, units.size());

    // Simulated totals over every unit that ran the model.
    for (const char *m : kLineup) {
        std::uint64_t cycles = 0, products = 0, slots = 0, t3 = 0;
        for (std::size_t i = 0; i < units.size(); ++i) {
            for (std::size_t k = 0; k < units[i].models.size(); ++k) {
                if (units[i].models[k]->name() != m)
                    continue;
                const RunResult &r = base.results[i][k];
                cycles += r.cycles;
                products += r.products;
                slots += r.macSlots;
                t3 += r.tasksT3;
            }
        }
        const std::string prefix = std::string("sim.") + m;
        rep.set(prefix + ".cycles", static_cast<double>(cycles),
                "cycles", Kind::Sim);
        rep.set(prefix + ".util",
                slots > 0 ? static_cast<double>(products) /
                                static_cast<double>(slots)
                          : 0.0,
                "ratio", Kind::Sim);
        if (std::string(m) == "Uni-STC")
            rep.set(prefix + ".t3_tasks", static_cast<double>(t3),
                    "count", Kind::Sim);
    }

    const double driverLineup = rec.total("driver.lineup");
    rep.set("driver.lineup_calls",
            static_cast<double>(rec.count("driver.lineup")), "count",
            Kind::Count);
    rep.set("driver.lineup_s", driverLineup, "s", Kind::Host,
            units.size());
    rep.set("driver.overhead_s",
            driverLineup - drv.engineSeconds -
                lookup(self, "runner.plan") -
                lookup(self, "sim.finalize"),
            "s", Kind::Host, units.size());
    return base;
}

} // namespace

void
verifyDigests(const Options &opt, const std::string &name,
              const DigestList &actual, Report &rep)
{
    const std::string path = opt.digestDir + "/" + name + ".digests";
    if (opt.writeDigests) {
        if (!writeDigests(path, opt.seed, actual))
            rep.fail(1, "cannot write " + path);
        return;
    }
    std::uint64_t seed = 0;
    DigestList expected;
    if (!loadDigests(path, &seed, &expected)) {
        rep.fail(1, "no committed digests at " + path);
        return;
    }
    if (seed != opt.seed)
        return; // Committed for another seed; the other checks hold.
    rep.fail(countMismatches(actual, expected),
             "unit digests differ from " + path);
}

void
runSweepWorkload(const Options &opt, Report &rep, SpanRecorder *rec)
{
    const MachineConfig cfg = MachineConfig::fp64();
    std::vector<StcModelPtr> owned;
    std::vector<const StcModel *> lineup;
    for (const char *m : kLineup) {
        owned.push_back(makeStcModel(m, cfg));
        lineup.push_back(owned.back().get());
    }

    // Set-up is repeated and its median reported, so moving work
    // into it shows.
    Corpus corpus;
    std::vector<double> setup;
    const double setupStart = nowSeconds();
    while (setup.empty() ||
           (rec == nullptr &&
            (setup.size() < 3 ||
             (setup.size() < 7 && nowSeconds() - setupStart < 1.0)))) {
        corpus = Corpus{};
        const double t0 = nowSeconds();
        ScopedSpan s(rec, "setup");
        corpus = buildCorpus(opt.workload, opt.seed, rec);
        setup.push_back(nowSeconds() - t0);
    }

    const std::vector<Kernel> kernels =
        opt.workload == "tab08_sweep"
            ? allKernels()
            : std::vector<Kernel>{Kernel::SpMV, Kernel::SpMSpV};
    std::vector<Unit> units;
    std::vector<std::uint64_t> products;
    for (const Kernel k : kernels) {
        for (const auto &p : corpus.mats) {
            units.push_back({k, p.get(), lineup,
                             std::string(toString(k)) + "|" + p->name});
            products.push_back(structuralProducts(k, *p));
        }
    }

    const auto check = [&](const PassResult &pass, const char *what) {
        rep.attempt(units.size());
        std::size_t bad = 0;
        for (std::size_t i = 0; i < units.size(); ++i) {
            for (const RunResult &r : pass.results[i])
                bad += r.products != products[i] ? 1 : 0;
        }
        rep.fail(bad, std::string(what) +
                          ": products differ from the structural count");
    };

    // Host time on a shared machine only ever gains slow phases, so
    // whole-sweep walls are best of N.
    PassResult first;
    std::vector<double> serialWalls, jobsWalls;
    if (rec == nullptr) {
        const double start = nowSeconds();
        while (serialWalls.size() < 2 ||
               nowSeconds() - start < opt.seconds) {
            PassResult serial = runDriverPass(units, 1);
            check(serial, "serial pass");
            if (first.results.empty())
                first = serial;
            else
                rep.fail(countDifferences(first, serial),
                         "serial passes disagree");
            serialWalls.push_back(serial.wall);
            // The --jobs pass is short and needs every core quiet at
            // once, so it gets two tries per serial pass.
            for (int k = 0; k < 2; ++k) {
                const PassResult jobs = runDriverPass(units, opt.jobs);
                check(jobs, "--jobs pass");
                rep.fail(countDifferences(first, jobs),
                         "--jobs pass differs from the serial pass");
                jobsWalls.push_back(jobs.wall);
            }
        }
    } else {
        rep.set("corpus.gen_s", rec->total("corpus.gen"), "s",
                Kind::Host);
        rep.set("corpus.matrices",
                static_cast<double>(corpus.mats.size()), "count",
                Kind::Count);
        rep.set("corpus.nnz", static_cast<double>(corpus.nnz), "count",
                Kind::Count);
        rep.set("bbc.from_csr_s", rec->total("bbc.from_csr"), "s",
                Kind::Host, corpus.mats.size());
        rep.set("bbc.blocks", static_cast<double>(corpus.blocks),
                "count", Kind::Count);
        first = measureLayers(units, *rec, rep);
        check(first, "serial pass");
        std::vector<double> unitMs;
        for (const double secs : first.unitSeconds)
            unitMs.push_back(1e3 * secs);
        rep.set("lineup.p50_ms", percentile(unitMs, 0.5), "ms",
                Kind::Host, unitMs.size());
        rep.set("lineup.p99_ms", percentile(unitMs, 0.99), "ms",
                Kind::Host, unitMs.size());
        const PassResult jobs = runDriverPass(units, opt.jobs);
        check(jobs, "--jobs pass");
        rep.fail(countDifferences(first, jobs),
                 "--jobs pass differs from the serial pass");
        const double speedup = first.wall / jobs.wall;
        rep.set("exec.speedup", speedup, "x", Kind::Host);
        rep.set("exec.efficiency", speedup / opt.jobs, "ratio",
                Kind::Host);
        // The daemon's per-request overhead gets its own phase here:
        // vector_large's traced run is the shorter of the two.
        if (opt.workload == "vector_large")
            runServePhase(opt, rep, rec);
    }

    DigestList digests;
    PaperError paper;
    for (std::size_t i = 0; i < units.size(); ++i) {
        digests.push_back({units[i].key, lineupDigest(first.results[i])});
        paper.add(first.results[i][0], first.results[i][1],
                  first.results[i][2]);
    }
    verifyDigests(opt, opt.workload, digests, rep);

    if (rec != nullptr)
        return;
    rep.set("setup_s", median(setup), "s", Kind::Host, setup.size());
    rep.set("wall_s",
            *std::min_element(serialWalls.begin(), serialWalls.end()), "s",
            Kind::Host, serialWalls.size());
    rep.set("wall_jobs_s",
            *std::min_element(jobsWalls.begin(), jobsWalls.end()), "s",
            Kind::Host, jobsWalls.size());
    rep.set("peak_rss_mb", selfPeakRssMb(), "MB", Kind::Host);
    rep.set("paper_err_pct", paper.pct(), "%", Kind::Sim,
            paper.count());
    std::printf("%s: %zu units; serial walls", opt.workload.c_str(),
                units.size());
    for (const double w : serialWalls)
        std::printf(" %.3f", w);
    std::printf(" s; --jobs %d walls", opt.jobs);
    for (const double w : jobsWalls)
        std::printf(" %.3f", w);
    std::printf(" s\n");
}

} // namespace hostbench
