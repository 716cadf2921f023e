/**
 * @file
 * Self-contained description of one simulation job — everything a
 * worker thread needs to run (kernel, model lineup, operands, energy
 * parameters) captured by value or shared immutable pointer, so the
 * job can execute on any thread at any time and always produce the
 * identical RunResults.
 */

#ifndef UNISTC_EXEC_JOB_SPEC_HH
#define UNISTC_EXEC_JOB_SPEC_HH

#include <memory>
#include <string>
#include <vector>

#include "bbc/bbc_matrix.hh"
#include "runner/report.hh"
#include "sim/energy.hh"
#include "sparse/sparse_vector.hh"
#include "stc/stc_model.hh"

namespace unistc
{

class TraceSink;
struct PipelineCounters;

/**
 * One (kernel, matrix, model lineup) simulation job: the kernel's
 * task stream is opened ONCE and every generated task is fanned out
 * to all lineup models in a single pass (engine/kernel_pipeline.hh).
 * A one-model job is a lineup of one. Operands are shared immutable
 * pointers so a sweep over one matrix does not copy it per job.
 * Determinism contract: run() is a pure function of the spec — two
 * executions of the same spec, on any threads in any order, produce
 * bitwise-identical RunResults.
 */
struct JobSpec
{
    Kernel kernel = Kernel::SpMV;

    /** Matrix display name (trace process names, errors). */
    std::string matrix;

    /**
     * The lineup, usually clone()s of the caller's models
     * (preserving non-config knobs); names come from name().
     */
    std::vector<std::shared_ptr<const StcModel>> models;

    /** Left operand (all kernels); SpGEMM computes C = A * A. */
    std::shared_ptr<const BbcMatrix> a;

    /** SpMSpV input vector (required for SpMSpV). */
    std::shared_ptr<const SparseVector> x;

    /** Dense-B width for SpMM (the paper fixes 64). */
    int bCols = 64;

    /** Energy model parameters (EnergyModel is stateless besides). */
    EnergyParams energy{};

    /**
     * Execute the job's plan through every model of the lineup in a
     * single pass over one task stream, returning one finalized
     * RunResult per model (lineup order). @p traces, when non-empty,
     * supplies one optional sink per model; @p counters, when given,
     * receives the engine's per-layer counters.
     */
    std::vector<RunResult>
    run(const std::vector<TraceSink *> &traces = {},
        PipelineCounters *counters = nullptr) const;

    /** "kernel model[+model...] @ matrix" label for logs/errors. */
    std::string label() const;
};

} // namespace unistc

#endif // UNISTC_EXEC_JOB_SPEC_HH
