/**
 * @file
 * Execution-driver library tests (src/driver/): the SweepRequest
 * parser shared by every binary, runKernel() routing through an
 * ExecutionContext, DriverSession's plan/replay orchestration, and
 * context reuse across back-to-back sweeps in one process — the
 * embedding contract the bench singletons could never offer — and
 * the failure contract: a throwing job fails the sweep with the same
 * first error at any --jobs count.
 * Labeled "driver" so every sanitizer preset runs it (see
 * CMakePresets.json).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generators.hh"
#include "driver/driver_session.hh"
#include "driver/execution_context.hh"
#include "driver/kernel_run.hh"
#include "driver/sweep_request.hh"
#include "driver/version.hh"
#include "poison_model.hh"
#include "runner/spmv_runner.hh"
#include "stc/registry.hh"

namespace unistc
{
namespace
{

/** argv adapter: parseSweepCli wants mutable char** like main(). */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args)
        : strings_(std::move(args))
    {
        strings_.insert(strings_.begin(), "driver_tests");
        for (std::string &s : strings_)
            ptrs_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> ptrs_;
};

driver::ParsedCli
parseOk(std::vector<std::string> args,
        const std::vector<driver::CliFlag> &extra = {})
{
    Argv a(std::move(args));
    Result<driver::ParsedCli> parsed =
        driver::parseSweepCli(a.argc(), a.argv(), extra);
    EXPECT_TRUE(parsed.ok()) << parsed.status().message();
    return parsed.ok() ? parsed.value() : driver::ParsedCli();
}

Status
parseError(std::vector<std::string> args,
           const std::vector<driver::CliFlag> &extra = {})
{
    Argv a(std::move(args));
    Result<driver::ParsedCli> parsed =
        driver::parseSweepCli(a.argc(), a.argv(), extra);
    EXPECT_FALSE(parsed.ok());
    return parsed.ok() ? Status() : parsed.status();
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.products, b.products);
    EXPECT_EQ(a.macSlots, b.macSlots);
    EXPECT_EQ(a.tasksT1, b.tasksT1);
    EXPECT_EQ(a.tasksT3, b.tasksT3);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.traffic.totalA(), b.traffic.totalA());
    EXPECT_EQ(a.traffic.writesC, b.traffic.writesC);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

// ---------------------------------------------------------------
// SweepRequest parsing: one parser, every binary.
// ---------------------------------------------------------------

TEST(SweepRequestParse, DefaultsAreSerialAndUnsharded)
{
    const driver::ParsedCli cli = parseOk({});
    EXPECT_FALSE(cli.helpRequested);
    EXPECT_FALSE(cli.versionRequested);
    EXPECT_FALSE(cli.request.quick);
    EXPECT_FALSE(cli.request.smoke);
    EXPECT_EQ(cli.request.jobs, 1);
    EXPECT_FALSE(cli.request.logLevelSet);
    EXPECT_TRUE(cli.extra.empty());
}

TEST(SweepRequestParse, StandardFamilyRoundTrips)
{
    const driver::ParsedCli cli =
        parseOk({"--quick", "--jobs", "3", "--log-level", "warn"});
    const driver::SweepRequest &req = cli.request;
    EXPECT_TRUE(req.quick);
    EXPECT_EQ(req.jobs, 3);
    EXPECT_TRUE(req.logLevelSet);
    EXPECT_EQ(req.logLevel, LogLevel::Warn);
}

TEST(SweepRequestParse, EqualsFormAndSmokeImpliesQuick)
{
    const driver::ParsedCli cli = parseOk({"--jobs=2", "--smoke"});
    EXPECT_EQ(cli.request.jobs, 2);
    EXPECT_TRUE(cli.request.smoke);
    EXPECT_TRUE(cli.request.quick);
}

TEST(SweepRequestParse, RejectsUnknownOption)
{
    const Status s = parseError({"--frobnicate"});
    EXPECT_NE(s.message().find("unknown option '--frobnicate'"),
              std::string::npos);
    EXPECT_NE(s.message().find("--help"), std::string::npos);

    // Sharding, checkpoint/resume and the matrix artifact cache are
    // gone from the family: their old flags are ordinary unknown
    // options now.
    for (const char *flag :
         {"--resume", "--shards", "--shard", "--shard-out",
          "--shard-dir", "--shard-max-seconds",
          "--shard-heartbeat-seconds", "--shard-retries",
          "--shard-backoff-seconds", "--cache-dir", "--cache"}) {
        SCOPED_TRACE(flag);
        const Status removed = parseError({flag, "1"});
        EXPECT_NE(removed.message().find("unknown option '" +
                                         std::string(flag) + "'"),
                  std::string::npos);
    }
    const Status strict = parseError({"--shard-strict"});
    EXPECT_NE(strict.message().find("unknown option '--shard-strict'"),
              std::string::npos);
}

TEST(SweepRequestParse, RejectsMissingValueAndBadNumbers)
{
    parseError({"--jobs"});
    parseError({"--jobs", "three"});
    parseError({"--jobs", "-2"});
    parseError({"--log-level", "loud"});
    // The worker count is bounded before any thread exists.
    for (const char *n : {"1025", "99999999999"}) {
        const Status s = parseError({"--jobs", n});
        EXPECT_NE(s.message().find("limit of 1024"), std::string::npos)
            << s.message();
    }
    EXPECT_EQ(parseOk({"--jobs", "1024"}).request.jobs, 1024);
}

TEST(SweepRequestParse, ExtraFlagsLandInExtraMap)
{
    const std::vector<driver::CliFlag> extra = {
        {"kernel", true, "NAME", "which kernel"},
        {"fast", false, "", "a switch"},
    };
    const driver::ParsedCli cli =
        parseOk({"--kernel", "spmm", "--fast", "--jobs", "2"}, extra);
    EXPECT_EQ(cli.extra.at("kernel"), "spmm");
    EXPECT_EQ(cli.extra.at("fast"), "1");
    EXPECT_EQ(cli.extra.count("jobs"), 0u); // standard, not extra
    EXPECT_EQ(cli.request.jobs, 2);
}

TEST(SweepRequestParse, UnknownExtraStillRejected)
{
    const std::vector<driver::CliFlag> extra = {
        {"kernel", true, "NAME", "which kernel"}};
    const Status s = parseError({"--kernle", "spmm"}, extra);
    EXPECT_NE(s.message().find("unknown option"), std::string::npos);
}

TEST(SweepRequestParse, HelpAndVersionShortCircuit)
{
    EXPECT_TRUE(parseOk({"--help"}).helpRequested);
    EXPECT_TRUE(parseOk({"-h"}).helpRequested);
    EXPECT_TRUE(parseOk({"--version"}).versionRequested);
    // Even with a malformed tail: the request is best-effort.
    EXPECT_TRUE(parseOk({"--help", "--jobs"}).helpRequested);
}

TEST(SweepCliHelp, ListsExtraFlagsThenStandardFamily)
{
    const std::vector<driver::CliFlag> extra = {
        {"kernel", true, "NAME", "which kernel to simulate"}};
    const std::string text = driver::sweepCliHelp("x", extra);
    const std::size_t kernel_at = text.find("--kernel NAME");
    const std::size_t jobs_at = text.find("--jobs N");
    EXPECT_NE(kernel_at, std::string::npos);
    EXPECT_NE(jobs_at, std::string::npos);
    EXPECT_LT(kernel_at, jobs_at); // binary flags lead
    EXPECT_NE(text.find("--version"), std::string::npos);
    EXPECT_EQ(text.find("--cache"), std::string::npos);
    EXPECT_EQ(text.find("--resume"), std::string::npos);
    EXPECT_EQ(text.find("--shard"), std::string::npos);
}

TEST(Version, ReportsRevisionAndSchemaVersions)
{
    const std::string v = driver::versionString("simulate_cli");
    EXPECT_NE(v.find("simulate_cli (unistc) revision "),
              std::string::npos);
    EXPECT_NE(v.find("bench-json"), std::string::npos);
    EXPECT_NE(v.find("warehouse v"), std::string::npos);
    EXPECT_NE(v.find("bbc-container v"), std::string::npos);
    EXPECT_EQ(v.find("checkpoint"), std::string::npos);
    EXPECT_EQ(v.find("shard-manifest"), std::string::npos);
}

// ---------------------------------------------------------------
// Kernel runs through an ExecutionContext.
// ---------------------------------------------------------------

/** Install a fresh context for one test body, restore after. */
class ScopedContext
{
  public:
    ScopedContext()
        : previous_(driver::ExecutionContext::makeCurrent(&ctx_))
    {
    }
    ~ScopedContext()
    {
        driver::ExecutionContext::makeCurrent(previous_);
    }
    driver::ExecutionContext &operator*() { return ctx_; }
    driver::ExecutionContext *operator->() { return &ctx_; }

  private:
    driver::ExecutionContext ctx_;
    driver::ExecutionContext *previous_;
};

TEST(DriverKernelRun, SerialRunMatchesInlineExecution)
{
    const driver::Prepared prep("t", genBanded(192, 8, 0.5, 3));
    const MachineConfig cfg = MachineConfig::fp64();
    const auto model = makeStcModel("Uni-STC", cfg);
    const RunResult inline_r = runSpmv(*model, prep.bbc, EnergyModel());
    ScopedContext ctx;
    const RunResult driven =
        driver::runKernel(Kernel::SpMV, *model, prep, EnergyModel());
    expectSameResult(inline_r, driven);
}

namespace
{

/** The shared experiment body: 3 models x 1 kernel, like a bench. */
std::vector<RunResult>
runThreeModels()
{
    const driver::Prepared prep("t", genBanded(192, 8, 0.5, 3));
    const MachineConfig cfg = MachineConfig::fp64();
    std::vector<RunResult> out;
    for (const char *name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        const auto model = makeStcModel(name, cfg);
        out.push_back(driver::runKernel(Kernel::SpMV, *model, prep));
    }
    return out;
}

} // namespace

/** A bench-style report of @p results through the context sink. */
void
reportResults(const std::vector<RunResult> &results)
{
    for (const RunResult &r : results) {
        driver::reportf("%llu cycles, %llu products, %.6f pJ\n",
                        static_cast<unsigned long long>(r.cycles),
                        static_cast<unsigned long long>(r.products),
                        r.energy.total());
    }
}

TEST(DriverSessionTest, JobsReplayIsByteIdenticalToSerial)
{
    // Serial baseline through a fresh context (Off mode).
    std::vector<RunResult> serial;
    std::string serialReport;
    {
        ScopedContext ctx;
        ctx->captureReport(&serialReport);
        serial = runThreeModels();
        reportResults(serial);
    }

    // The same body driven through a --jobs 2 plan/replay session.
    driver::ExecutionContext ctx;
    std::string drivenReport;
    ctx.captureReport(&drivenReport);
    driver::SweepRequest req;
    req.jobs = 2;
    std::vector<RunResult> driven;
    driver::DriverSession session(ctx);
    Argv argv({});
    const int rc = session.run(req, argv.argc(), argv.argv(),
                               [&driven](int, char **) {
                                   driven = runThreeModels();
                                   reportResults(driven);
                                   return 0;
                               });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(driven.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameResult(serial[i], driven[i]);
    }
    // The plan pass's sentinel report is dropped; only the replay's
    // lands in the buffer.
    EXPECT_FALSE(serialReport.empty());
    EXPECT_EQ(drivenReport, serialReport);
}

TEST(DriverSessionTest, LineupThroughJobsMatchesPerModelRuns)
{
    const MachineConfig cfg = MachineConfig::fp64();
    std::vector<StcModelPtr> owned;
    std::vector<const StcModel *> models;
    for (const char *name : {"DS-STC", "RM-STC", "Uni-STC"}) {
        owned.push_back(makeStcModel(name, cfg));
        models.push_back(owned.back().get());
    }

    std::vector<RunResult> serial;
    {
        ScopedContext ctx;
        serial = runThreeModels();
    }

    driver::ExecutionContext ctx;
    driver::SweepRequest req;
    req.jobs = 2;
    std::vector<RunResult> driven;
    driver::DriverSession session(ctx);
    Argv argv({});
    const int rc = session.run(
        req, argv.argc(), argv.argv(),
        [&](int, char **) {
            const driver::Prepared prep("t",
                                        genBanded(192, 8, 0.5, 3));
            driven = driver::runKernelLineup(
                Kernel::SpMV, models, prep);
            return 0;
        });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(driven.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameResult(serial[i], driven[i]);
    }

    // A one-model lineup keeps its engine counters at any --jobs.
    const std::vector<const StcModel *> uni = {models.back()};
    const auto oneModelCounters = [&uni](int jobs) {
        driver::ExecutionContext one_ctx;
        driver::SweepRequest one_req;
        one_req.jobs = jobs;
        PipelineCounters counters;
        driver::DriverSession one_session(one_ctx);
        Argv one_argv({});
        EXPECT_EQ(one_session.run(
                      one_req, one_argv.argc(), one_argv.argv(),
                      [&](int, char **) {
                          const driver::Prepared prep(
                              "t", genBanded(192, 8, 0.5, 3));
                          driver::runKernelLineup(
                              Kernel::SpMV, uni, prep, EnergyModel(),
                              false, &counters);
                          return 0;
                      }),
                  0);
        return counters;
    };
    const PipelineCounters one_serial = oneModelCounters(1);
    const PipelineCounters one_jobs = oneModelCounters(2);
    EXPECT_GT(one_serial.tasksGenerated, 0u);
    EXPECT_EQ(one_serial.modelsFanout, 1u);
    EXPECT_EQ(one_serial.peakLiveTasks, 1u);
    EXPECT_EQ(one_jobs.tasksGenerated, one_serial.tasksGenerated);
    EXPECT_EQ(one_jobs.modelsFanout, one_serial.modelsFanout);
    EXPECT_EQ(one_jobs.peakLiveTasks, one_serial.peakLiveTasks);
}

TEST(DriverSessionTest, ContextServesBackToBackSweeps)
{
    driver::ExecutionContext ctx;
    driver::DriverSession session(ctx);
    Argv argv({});

    // Sweep 1: a --jobs 2 plan/replay run.
    driver::SweepRequest req1;
    req1.jobs = 2;
    std::vector<RunResult> first;
    EXPECT_EQ(session.run(req1, argv.argc(), argv.argv(),
                          [&](int, char **) {
                              first = runThreeModels();
                              return 0;
                          }),
              0);
    EXPECT_EQ(ctx.sweep().executor(), nullptr);

    // Sweep 2, same context, serial: beginRun() must have cleared
    // sweep 1's plan/replay state, so every job simulates inline
    // and matches sweep 1 bit for bit.
    driver::SweepRequest req2;
    std::vector<RunResult> second;
    EXPECT_EQ(session.run(req2, argv.argc(), argv.argv(),
                          [&](int, char **) {
                              second = runThreeModels();
                              return 0;
                          }),
              0);
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameResult(first[i], second[i]);
    }
}

TEST(DriverSessionTest, ReportingPassFlagGuardsPlanPass)
{
    driver::ExecutionContext ctx;
    driver::SweepRequest req;
    req.jobs = 2;
    driver::DriverSession session(ctx);
    Argv argv({});
    std::string report;
    ctx.captureReport(&report);
    std::vector<bool> seen;
    EXPECT_EQ(session.run(req, argv.argc(), argv.argv(),
                          [&](int, char **) {
                              seen.push_back(ctx.reportingPass());
                              driver::reportf("pass %d\n",
                                              static_cast<int>(
                                                  seen.size()));
                              runThreeModels();
                              return 0;
                          }),
              0);
    // Plan pass (discarded output), then the reporting replay.
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_FALSE(seen[0]);
    EXPECT_TRUE(seen[1]);
    EXPECT_EQ(report, "pass 2\n");
    // The context is reusable state after the run: no live executor.
    EXPECT_EQ(ctx.sweep().executor(), nullptr);
    EXPECT_TRUE(ctx.reportingPass());
}


namespace
{

/**
 * A sweep over a sparse and a fully dense matrix whose poison models
 * throw on the dense one: "Poison-2" runs there before "Poison-1",
 * so a serial run stops at Poison-2's error.
 */
void
poisonedSweep()
{
    const MachineConfig cfg = MachineConfig::fp64();
    const auto clean = makeStcModel("DS-STC", cfg);
    const PoisonModel first("Poison-1", cfg);
    const PoisonModel second("Poison-2", cfg);
    const std::vector<const StcModel *> sparseOrder = {
        clean.get(), &first, &second};
    const std::vector<const StcModel *> denseOrder = {
        clean.get(), &second, &first};
    const driver::Prepared sparse("banded",
                                  genBanded(192, 8, 0.5, 3));
    for (const StcModel *m : sparseOrder)
        driver::runKernel(Kernel::SpMV, *m, sparse);
    const driver::Prepared dense("dense",
                                 genRandomUniform(64, 64, 1.0, 5));
    for (const StcModel *m : denseOrder)
        driver::runKernel(Kernel::SpMV, *m, dense);
}

} // namespace

TEST(DriverSessionTest, FailingJobFailsTheSweepAtAnyJobCount)
{
    // --jobs 1 runs the body inline; --jobs 4 plans every job, runs
    // them on a pool and rethrows at the barrier. Both must surface
    // the same first failure and never reach a reporting pass.
    for (const char *jobs : {"1", "4"}) {
        SCOPED_TRACE(std::string("--jobs ") + jobs);
        driver::ParsedCli cli = parseOk({"--jobs", jobs});
        driver::ExecutionContext ctx;
        std::string report;
        ctx.captureReport(&report);
        driver::DriverSession session(ctx);
        Argv argv({"--jobs", jobs});
        int reportingPasses = 0;
        try {
            session.run(cli.request, argv.argc(), argv.argv(),
                        [&](int, char **) {
                            if (ctx.reportingPass())
                                ++reportingPasses;
                            driver::reportf("sweep\n");
                            poisonedSweep();
                            driver::reportf("done\n");
                            return 0;
                        });
            ADD_FAILURE() << "the sweep did not fail";
        } catch (const UnistcError &e) {
            EXPECT_EQ(e.status().message(),
                      PoisonModel::errorFor("Poison-2"));
        }
        // Serial: the one (reporting) pass throws mid-body. Parallel:
        // only the silent plan pass ran; replay never started.
        EXPECT_EQ(reportingPasses, std::string(jobs) == "1" ? 1 : 0);
        // Serial keeps the partial report up to the throw; the
        // parallel plan pass reports nothing at all.
        EXPECT_EQ(report, std::string(jobs) == "1" ? "sweep\n" : "");
    }
}

} // namespace
} // namespace unistc
