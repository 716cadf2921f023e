#include "driver/kernel_run.hh"

#include "common/logging.hh"
#include "driver/execution_context.hh"
#include "runner/spgemm_runner.hh"
#include "runner/spmm_runner.hh"
#include "runner/spmspv_runner.hh"
#include "runner/spmv_runner.hh"

namespace unistc
{
namespace driver
{

RunResult
executeKernel(Kernel kernel, const StcModel &model, const Prepared &p,
              const EnergyModel &energy, int bCols)
{
    switch (kernel) {
      case Kernel::SpMV:
        return runSpmv(model, p.bbc, energy);
      case Kernel::SpMSpV:
        return runSpmspv(model, p.bbc, p.x50, energy);
      case Kernel::SpMM:
        return runSpmm(model, p.bbc, bCols, energy);
      case Kernel::SpGEMM:
        return runSpgemm(model, p.bbc, p.bbc, energy);
    }
    UNISTC_PANIC("executeKernel: unknown kernel");
}

RunResult
runKernel(Kernel kernel, const StcModel &model, const Prepared &p,
          const EnergyModel &energy, int bCols, RunInfo *info)
{
    ExecutionContext &ctx = ExecutionContext::active();
    SweepSession &session = ctx.sweep();
    CheckpointSession &ckpt = ctx.checkpoints();
    ShardSession &shard = ctx.shard();
    if (info != nullptr)
        *info = RunInfo();
    // --resume: a checkpointed job is served from the file in every
    // mode and never submitted/simulated. Every mode (plan/replay,
    // worker/serve) asks in the same order, so the occurrence
    // cursors stay aligned across passes AND processes.
    const CheckpointEntry *hit =
        ckpt.lookup(kernel, model.name(), p.name);
    if (hit != nullptr && info != nullptr)
        info->resumed = true;

    if (shard.mode() == ShardSession::Mode::Worker) {
        const std::uint64_t unit = shard.beginUnit();
        if (hit != nullptr)
            return hit->result; // complete via the user checkpoint
        if (!shard.owns(unit) || shard.alreadyRecorded(unit))
            return SweepSession::sentinel();
        shard.checkInjectedFault();
        const RunResult res =
            executeKernel(kernel, model, p, energy, bCols);
        ShardUnitRecord rec;
        rec.unit = unit;
        rec.entries.push_back(
            {toString(kernel), model.name(), p.name, res});
        shard.completeUnit(rec);
        return res;
    }
    if (shard.mode() == ShardSession::Mode::Serve) {
        const std::uint64_t unit = shard.beginUnit();
        RunResult res;
        bool quarantined = false;
        if (hit != nullptr) {
            res = hit->result;
        } else if (const ShardUnitRecord *rec = shard.find(unit)) {
            if (rec->entries.size() != 1 ||
                rec->entries[0].kernel != toString(kernel) ||
                rec->entries[0].model != model.name() ||
                rec->entries[0].matrix != p.name) {
                UNISTC_FATAL(
                    "--shards merge diverged at unit ", unit,
                    ": the manifest holds a different job than the "
                    "requested ", toString(kernel), " ", model.name(),
                    " @ ", p.name, ". The bench body must be "
                    "deterministic across processes.");
            }
            res = rec->entries[0].result;
        } else if (shard.unitQuarantined(unit)) {
            // The owning shard died on every attempt before this
            // unit: report zeros but do NOT checkpoint them, so a
            // rerun with the same --resume file heals the hole.
            quarantined = true;
            if (info != nullptr)
                info->quarantined = true;
        } else {
            UNISTC_FATAL(
                "--shards merge is missing unit ", unit, " (",
                toString(kernel), " ", model.name(), " @ ", p.name,
                ") though its shard completed. The bench body must "
                "be deterministic across processes.");
        }
        if (hit == nullptr && !quarantined)
            ckpt.append(kernel, model.name(), p.name, res);
        ctx.results().record(kernel, model.name(), p.name, res);
        return res;
    }

    if (hit != nullptr) {
        if (session.mode() == SweepSession::Mode::Plan)
            return hit->result;
        ctx.results().record(kernel, model.name(), p.name,
                             hit->result);
        return hit->result;
    }
    if (session.mode() == SweepSession::Mode::Plan)
        return session.plan(kernel, model, p, energy, bCols);

    RunResult res;
    if (session.mode() == SweepSession::Mode::Replay)
        res = session.replay(kernel, model, p);
    else
        res = executeKernel(kernel, model, p, energy, bCols);
    // Newly computed (not resumed) results extend the checkpoint;
    // this runs in the serial replay / Off paths only, so entries
    // land in deterministic body order.
    ckpt.append(kernel, model.name(), p.name, res);
    ctx.results().record(kernel, model.name(), p.name, res);
    return res;
}

std::vector<RunResult>
runKernelLineup(Kernel kernel,
                const std::vector<const StcModel *> &models,
                const Prepared &p, const EnergyModel &energy,
                bool record_timing, PipelineCounters *counters_out,
                int bCols, std::vector<RunInfo> *infos)
{
    ExecutionContext &ctx = ExecutionContext::active();
    SweepSession &session = ctx.sweep();
    CheckpointSession &ckpt = ctx.checkpoints();
    ShardSession &shard = ctx.shard();
    const std::size_t n = models.size();
    UNISTC_ASSERT(n > 0, "runKernelLineup needs at least one model");
    if (infos != nullptr)
        infos->assign(n, RunInfo());

    // --resume: serve checkpointed models from the file and fan the
    // stream out only to the missing tail of the lineup. Lookups
    // advance the per-key occurrence cursors in every mode, so the
    // plan and replay passes stay aligned.
    std::vector<RunResult> results(n);
    std::vector<bool> from_ckpt(n, false);
    std::vector<const StcModel *> missing;
    std::vector<std::size_t> missing_idx;
    for (std::size_t m = 0; m < n; ++m) {
        if (const CheckpointEntry *hit =
                ckpt.lookup(kernel, models[m]->name(), p.name)) {
            results[m] = hit->result;
            from_ckpt[m] = true;
            if (infos != nullptr)
                (*infos)[m].resumed = true;
        } else {
            missing.push_back(models[m]);
            missing_idx.push_back(m);
        }
    }

    if (shard.mode() == ShardSession::Mode::Worker) {
        const std::uint64_t unit = shard.beginUnit();
        if (counters_out != nullptr)
            *counters_out = PipelineCounters{};
        if (missing.empty())
            return results; // complete via the user checkpoint
        if (!shard.owns(unit) || shard.alreadyRecorded(unit)) {
            for (const std::size_t idx : missing_idx)
                results[idx] = SweepSession::sentinel();
            return results;
        }
        shard.checkInjectedFault();
        PlanInputs in;
        in.a = &p.bbc;
        in.b = &p.bbc; // SpGEMM: C = A * A, like runKernel().
        in.x = &p.x50;
        in.bCols = bCols;
        const KernelPlanPtr plan = makeKernelPlan(kernel, in);
        std::vector<KernelPipeline::ModelSlot> slots;
        slots.reserve(missing.size());
        for (const StcModel *m : missing)
            slots.push_back({m, nullptr});
        PipelineCounters counters;
        const std::vector<RunResult> ran =
            KernelPipeline::run(*plan, slots, energy, &counters);
        ShardUnitRecord rec;
        rec.unit = unit;
        for (std::size_t k = 0; k < missing_idx.size(); ++k) {
            results[missing_idx[k]] = ran[k];
            rec.entries.push_back({toString(kernel),
                                   missing[k]->name(), p.name,
                                   ran[k]});
        }
        rec.hasEngine = true;
        rec.engTasksGenerated = counters.tasksGenerated;
        rec.engModelsFanout = counters.modelsFanout;
        rec.engPeakLiveTasks = counters.peakLiveTasks;
        shard.completeUnit(rec);
        if (counters_out != nullptr)
            *counters_out = counters;
        return results;
    }
    if (shard.mode() == ShardSession::Mode::Serve) {
        const std::uint64_t unit = shard.beginUnit();
        PipelineCounters counters;
        bool quarantined = false;
        if (!missing.empty()) {
            if (const ShardUnitRecord *rec = shard.find(unit)) {
                if (rec->entries.size() != missing.size())
                    UNISTC_FATAL("--shards merge diverged at unit ",
                                 unit, ": manifest has ",
                                 rec->entries.size(),
                                 " model result(s), the serve pass ",
                                 "needs ", missing.size());
                for (std::size_t k = 0; k < missing_idx.size(); ++k) {
                    const CheckpointEntry &e = rec->entries[k];
                    if (e.kernel != toString(kernel) ||
                        e.model != missing[k]->name() ||
                        e.matrix != p.name) {
                        UNISTC_FATAL(
                            "--shards merge diverged at unit ", unit,
                            " slot ", k, ": the manifest holds a "
                            "different job than the requested ",
                            toString(kernel), " ",
                            missing[k]->name(), " @ ", p.name,
                            ". The bench body must be deterministic "
                            "across processes.");
                    }
                    results[missing_idx[k]] = e.result;
                }
                // Timing is deliberately absent from the manifest
                // (wall clock is not reproducible across processes),
                // so the engine row is recorded untimed — like a
                // checkpoint-resumed run.
                counters.tasksGenerated = rec->engTasksGenerated;
                counters.modelsFanout = rec->engModelsFanout;
                counters.peakLiveTasks = rec->engPeakLiveTasks;
            } else if (shard.unitQuarantined(unit)) {
                quarantined = true; // zeroed results, no checkpoint
                if (infos != nullptr) {
                    for (const std::size_t idx : missing_idx)
                        (*infos)[idx].quarantined = true;
                }
            } else {
                UNISTC_FATAL(
                    "--shards merge is missing unit ", unit, " (",
                    toString(kernel), " lineup @ ", p.name,
                    ") though its shard completed. The bench body "
                    "must be deterministic across processes.");
            }
            ctx.results().recordEngine(kernel, p.name, counters,
                                       /*timed=*/false);
        }
        if (counters_out != nullptr)
            *counters_out = counters;
        for (std::size_t m = 0; m < n; ++m) {
            if (!from_ckpt[m] && !quarantined) {
                ckpt.append(kernel, models[m]->name(), p.name,
                            results[m]);
            }
            ctx.results().record(kernel, models[m]->name(), p.name,
                                 results[m]);
        }
        return results;
    }

    if (session.mode() == SweepSession::Mode::Plan) {
        if (counters_out != nullptr)
            *counters_out = PipelineCounters{};
        if (!missing.empty()) {
            const std::vector<RunResult> planned =
                session.planLineup(kernel, missing, p, energy, bCols);
            for (std::size_t k = 0; k < missing_idx.size(); ++k)
                results[missing_idx[k]] = planned[k];
        }
        return results;
    }

    PipelineCounters counters;
    if (!missing.empty()) {
        if (session.mode() == SweepSession::Mode::Replay) {
            const std::vector<RunResult> ran = session.replayLineup(
                kernel, missing, p, &counters);
            for (std::size_t k = 0; k < missing_idx.size(); ++k)
                results[missing_idx[k]] = ran[k];
        } else {
            PlanInputs in;
            in.a = &p.bbc;
            in.b = &p.bbc; // SpGEMM: C = A * A, like runKernel().
            in.x = &p.x50;
            in.bCols = bCols;
            const KernelPlanPtr plan = makeKernelPlan(kernel, in);
            std::vector<KernelPipeline::ModelSlot> slots;
            slots.reserve(missing.size());
            for (const StcModel *m : missing)
                slots.push_back({m, nullptr});
            const std::vector<RunResult> ran = KernelPipeline::run(
                *plan, slots, energy, &counters);
            for (std::size_t k = 0; k < missing_idx.size(); ++k)
                results[missing_idx[k]] = ran[k];
        }
        ctx.results().recordEngine(kernel, p.name, counters,
                                   record_timing);
    }
    if (counters_out != nullptr)
        *counters_out = counters;

    for (std::size_t m = 0; m < n; ++m) {
        if (!from_ckpt[m]) {
            ckpt.append(kernel, models[m]->name(), p.name,
                        results[m]);
        }
        ctx.results().record(kernel, models[m]->name(), p.name,
                             results[m]);
    }
    return results;
}

} // namespace driver
} // namespace unistc
