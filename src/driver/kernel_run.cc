#include "driver/kernel_run.hh"

#include "common/logging.hh"
#include "driver/execution_context.hh"
#include "runner/block_driver.hh"

namespace unistc
{
namespace driver
{

namespace
{

/**
 * One lineup pass under @p session: submitted as one job (sentinel
 * results) on the plan pass, spliced in from that job on replay,
 * simulated inline over one shared task stream otherwise.
 */
std::vector<RunResult>
runLineup(SweepSession &session, Kernel kernel,
          const std::vector<const StcModel *> &models,
          const Prepared &p, const EnergyModel &energy, int bCols,
          PipelineCounters *counters)
{
    switch (session.mode()) {
      case SweepSession::Mode::Plan:
        return session.planLineup(kernel, models, p, energy, bCols);
      case SweepSession::Mode::Replay:
        return session.replayLineup(kernel, models, p, counters);
      case SweepSession::Mode::Off:
        break;
    }
    PlanInputs in;
    in.a = &p.bbc;
    in.b = &p.bbc; // SpGEMM: C = A * A.
    in.x = &p.x50;
    in.bCols = bCols;
    const KernelPlanPtr plan = makeKernelPlan(kernel, in);
    std::vector<KernelPipeline::ModelSlot> slots;
    slots.reserve(models.size());
    for (const StcModel *m : models)
        slots.push_back({m, nullptr});
    return KernelPipeline::run(*plan, slots, energy, counters);
}

} // namespace

RunResult
runKernel(Kernel kernel, const StcModel &model, const Prepared &p,
          const EnergyModel &energy, int bCols)
{
    ExecutionContext &ctx = ExecutionContext::active();
    SweepSession &session = ctx.sweep();
    const RunResult res = runLineup(session, kernel, {&model}, p,
                                    energy, bCols, nullptr)
                              .front();
    if (session.mode() != SweepSession::Mode::Plan)
        ctx.results().record(kernel, model.name(), p.name, res);
    return res;
}

std::vector<RunResult>
runKernelLineup(Kernel kernel,
                const std::vector<const StcModel *> &models,
                const Prepared &p, const EnergyModel &energy,
                bool record_timing, PipelineCounters *counters_out,
                int bCols)
{
    ExecutionContext &ctx = ExecutionContext::active();
    SweepSession &session = ctx.sweep();
    UNISTC_ASSERT(!models.empty(),
                  "runKernelLineup needs at least one model");

    PipelineCounters counters;
    std::vector<RunResult> results = runLineup(
        session, kernel, models, p, energy, bCols, &counters);
    if (counters_out != nullptr)
        *counters_out = counters;
    if (session.mode() == SweepSession::Mode::Plan)
        return results;

    ctx.results().recordEngine(kernel, p.name, counters, record_timing);
    for (std::size_t m = 0; m < models.size(); ++m) {
        ctx.results().record(kernel, models[m]->name(), p.name,
                             results[m]);
    }
    return results;
}

} // namespace driver
} // namespace unistc
