/**
 * @file
 * Parallel sweep engine tests: the ThreadPool contract, JobSpec
 * purity, and the executor's headline guarantee — a sweep run with 1
 * worker and with N workers produces bit-identical results, engine
 * counters and merged trace output. The concurrency hammer tests at the bottom exist for
 * the tsan preset; they pass trivially single-threaded but catch
 * races under -fsanitize=thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bbc/bbc_matrix.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "corpus/generators.hh"
#include "exec/job_spec.hh"
#include "exec/sweep_executor.hh"
#include "exec/thread_pool.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "stc/registry.hh"

using namespace unistc;

namespace
{

/** Field-by-field RunResult equality (bitwise for the doubles). */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.products, b.products);
    EXPECT_EQ(a.macSlots, b.macSlots);
    EXPECT_EQ(a.tasksT1, b.tasksT1);
    EXPECT_EQ(a.tasksT3, b.tasksT3);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.dpgActiveAccum, b.dpgActiveAccum);
    EXPECT_EQ(a.cNetScaleAccum, b.cNetScaleAccum);
    EXPECT_EQ(a.traffic.readsA, b.traffic.readsA);
    EXPECT_EQ(a.traffic.wastedA, b.traffic.wastedA);
    EXPECT_EQ(a.traffic.readsB, b.traffic.readsB);
    EXPECT_EQ(a.traffic.wastedB, b.traffic.wastedB);
    EXPECT_EQ(a.traffic.writesC, b.traffic.writesC);
    EXPECT_EQ(a.energy.fetchA, b.energy.fetchA);
    EXPECT_EQ(a.energy.fetchB, b.energy.fetchB);
    EXPECT_EQ(a.energy.writeC, b.energy.writeC);
    EXPECT_EQ(a.energy.schedule, b.energy.schedule);
    EXPECT_EQ(a.energy.compute, b.energy.compute);
}

std::shared_ptr<const BbcMatrix>
sharedBbc(const CsrMatrix &a)
{
    return std::make_shared<const BbcMatrix>(BbcMatrix::fromCsr(a));
}

/** The paper's 50 %-sparse SpMSpV vector over @p cols columns. */
std::shared_ptr<const SparseVector>
sharedX(int cols, std::uint64_t seed)
{
    Rng rng(seed);
    auto x = std::make_shared<SparseVector>(cols);
    for (int i = 0; i < cols; ++i) {
        if (rng.nextBool(0.5))
            x->push(i, rng.nextDouble(0.1, 1.0));
    }
    return x;
}

std::shared_ptr<const StcModel>
sharedModel(const std::string &name)
{
    return makeStcModel(name, MachineConfig::fp64());
}

/** A one-model job: the lineup of one every runKernel() submits. */
JobSpec
oneModelJob(Kernel kernel, const std::string &model,
            const std::string &matrix,
            std::shared_ptr<const BbcMatrix> a)
{
    JobSpec spec;
    spec.kernel = kernel;
    spec.matrix = matrix;
    spec.models.push_back(sharedModel(model));
    spec.a = std::move(a);
    return spec;
}

/**
 * A small mixed-kernel sweep exercising every merge path: one-model
 * jobs for each (model, matrix, kernel) plus a 3-model lineup job per
 * (matrix, kernel), whose models each get their own trace process.
 */
std::vector<JobSpec>
sampleSweep()
{
    const auto banded = sharedBbc(genBanded(192, 8, 0.5, 11));
    const auto random = sharedBbc(genRandomUniform(160, 160, 0.04, 12));
    const std::vector<std::string> names = {"Uni-STC", "DS-STC",
                                            "RM-STC"};
    const Kernel kernels[] = {Kernel::SpMV, Kernel::SpMSpV,
                              Kernel::SpMM, Kernel::SpGEMM};

    std::vector<JobSpec> specs;
    const auto add = [&specs](JobSpec spec) {
        spec.x = sharedX(spec.a->cols(), specs.size() + 1);
        specs.push_back(std::move(spec));
    };
    for (const auto &model : names) {
        for (const auto &a : {banded, random}) {
            for (const Kernel k : kernels)
                add(oneModelJob(k, model,
                                a == banded ? "banded" : "random", a));
        }
    }
    for (const auto &a : {banded, random}) {
        for (const Kernel k : kernels) {
            JobSpec spec;
            spec.kernel = k;
            spec.matrix = a == banded ? "banded" : "random";
            spec.a = a;
            for (const auto &model : names)
                spec.models.push_back(sharedModel(model));
            add(std::move(spec));
        }
    }
    return specs;
}

} // namespace

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
    EXPECT_EQ(pool.submitted(), 100u);
}

TEST(ThreadPool, WaitIsABarrierAndThePoolIsReusable)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 40; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 40);
    for (int i = 0; i < 17; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 57);
}

TEST(ThreadPool, InlineModeRunsOnTheCallerThread)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 0);
    const auto caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.submit([&ran_on] { ran_on = std::this_thread::get_id(); });
    // No wait(): inline mode executes during submit().
    EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

TEST(JobSpec, RunIsAPureFunctionOfTheSpec)
{
    const JobSpec spec =
        oneModelJob(Kernel::SpGEMM, "Uni-STC", "banded",
                    sharedBbc(genBanded(128, 6, 0.6, 3)));
    const std::vector<RunResult> first = spec.run();
    const std::vector<RunResult> second = spec.run();
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_GT(first[0].cycles, 0u);
    expectSameResult(first[0], second[0]);
}

// A clone() simulates exactly like a freshly constructed model.
TEST(JobSpec, ClonedModelMatchesRegistryModel)
{
    JobSpec spec = oneModelJob(Kernel::SpMV, "Uni-STC", "banded",
                               sharedBbc(genBanded(128, 6, 0.6, 5)));
    const RunResult fresh = spec.run().front();

    const auto model = makeStcModel("Uni-STC", MachineConfig::fp64());
    spec.models = {std::shared_ptr<const StcModel>(model->clone())};
    expectSameResult(fresh, spec.run().front());
}

TEST(SweepExecutor, WorkerCountDoesNotChangeAnyOutput)
{
    const auto specs = sampleSweep();

    auto runWith = [&specs](int jobs) {
        SweepExecutor::Options opt;
        opt.jobs = jobs;
        opt.tracePerJob = 4096;
        auto exec = std::make_unique<SweepExecutor>(opt);
        for (const auto &spec : specs)
            exec->submit(spec);
        exec->wait();
        return exec;
    };

    const auto serial = runWith(1);
    const auto parallel = runWith(8);

    ASSERT_EQ(serial->jobCount(), specs.size());
    ASSERT_EQ(parallel->jobCount(), specs.size());
    EXPECT_EQ(serial->workerCount(), 0);
    EXPECT_EQ(parallel->workerCount(), 8);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].label());
        for (std::size_t m = 0; m < specs[i].models.size(); ++m) {
            expectSameResult(serial->resultOf(i, m),
                             parallel->resultOf(i, m));
            EXPECT_GT(serial->resultOf(i, m).cycles, 0u);
        }
        const PipelineCounters &sc = serial->countersOf(i);
        const PipelineCounters &pc = parallel->countersOf(i);
        EXPECT_EQ(sc.tasksGenerated, pc.tasksGenerated);
        EXPECT_EQ(sc.modelsFanout, pc.modelsFanout);
        EXPECT_EQ(sc.peakLiveTasks, pc.peakLiveTasks);
    }

    // The headline guarantee: the merged trace is byte-equal.
    ASSERT_NE(serial->trace(), nullptr);
    ASSERT_NE(parallel->trace(), nullptr);
    std::ostringstream t1, tn;
    serial->trace()->writeChromeTrace(t1);
    parallel->trace()->writeChromeTrace(tn);
    EXPECT_EQ(t1.str(), tn.str());
}

// --- Concurrency hammers (interesting under -fsanitize=thread) ----

TEST(ObsThreadSafety, ConcurrentStatRegistryWrites)
{
    StatRegistry reg;
    ThreadPool pool(4);
    constexpr int kTasks = 64;
    constexpr int kAddsPerTask = 100;
    for (int t = 0; t < kTasks; ++t) {
        pool.submit([&reg, t] {
            for (int i = 0; i < kAddsPerTask; ++i) {
                reg.addCounter("shared.count", 1);
                reg.setScalar("task." + std::to_string(t % 8),
                              static_cast<double>(i));
            }
        });
    }
    pool.wait();
    EXPECT_EQ(reg.counter("shared.count"),
              static_cast<std::uint64_t>(kTasks) * kAddsPerTask);
}

TEST(ObsThreadSafety, ConcurrentRegistryMerges)
{
    StatRegistry total;
    ThreadPool pool(4);
    for (int t = 0; t < 32; ++t) {
        pool.submit([&total] {
            StatRegistry shard;
            shard.addCounter("merged.count", 3);
            total.merge(shard);
        });
    }
    pool.wait();
    EXPECT_EQ(total.counter("merged.count"), 32u * 3u);
}

TEST(ObsThreadSafety, ConcurrentLogLevelAccess)
{
    const LogLevel saved = logLevel();
    ThreadPool pool(4);
    for (int t = 0; t < 32; ++t) {
        pool.submit([t] {
            setLogLevel(t % 2 == 0 ? LogLevel::Warn
                                   : LogLevel::Error);
            (void)logLevel();
        });
    }
    pool.wait();
    setLogLevel(saved);
}
