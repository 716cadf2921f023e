/**
 * @file
 * The simulation service body shared by examples/simulate_cli.cc and
 * the unistc_serve daemon (docs/SERVING.md): one experiment parser
 * and one body, so a daemon response is byte-identical to a one-shot
 * simulate_cli run of the same request by construction — both paths
 * execute exactly this code.
 *
 * ServeHooks is the daemon's seam: a hook can hand the body an
 * already-prepared matrix (kept hot across requests) and splice in
 * results precomputed by a shared KernelPipeline lineup pass over a
 * batch of compatible requests. The engine guarantees lineup results
 * are bit-identical to one-model runs (docs/ARCHITECTURE.md), so the
 * splice cannot change a single output byte.
 */

#ifndef UNISTC_SERVE_SIM_SERVICE_HH
#define UNISTC_SERVE_SIM_SERVICE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/kernel_run.hh"
#include "driver/sweep_request.hh"
#include "sim/config.hh"

namespace unistc
{
namespace serve
{

/** Everything the simulation body needs, resolved before the run. */
struct Experiment
{
    std::map<std::string, std::string> opts; ///< Front-end extras.
    Kernel kernel = Kernel::SpMV;
    std::string kernelName;
    std::vector<std::string> names; ///< Models (lineup order).
    bool multi = false;             ///< --arch: one lineup job.
    MachineConfig cfg = MachineConfig::fp64();
    int bCols = 64;
};

/** The simulate front-end's flags, for the driver parser. */
std::vector<driver::CliFlag> simulateCliFlags();

/**
 * Resolve and validate every front-end flag of @p cli into an
 * Experiment, adjusting cli.request (trace ring capacity) on the
 * way. UNISTC_FATALs on invalid input — exits under
 * FatalBehavior::Exit (CLI), throws UnistcError under Throw (the
 * daemon wraps requests in ScopedFatalThrow).
 */
Experiment makeExperiment(driver::ParsedCli &cli);

/**
 * The matrix source of @p ex: --matrix path, --gen spec, or the
 * default generator spec. Stable across processes — it keys
 * ResultLog rows, the daemon's Prepared cache and the batch result
 * memo.
 */
std::string sourceLabel(const Experiment &ex);

/** Key of one (kernel, model, matrix, config) result in the memo. */
std::string resultMemoKey(const Experiment &ex,
                          const std::string &model);

/**
 * Read or generate the experiment's matrix and build its Prepared
 * image (BBC + the 50%-sparse SpMSpV operand). The single
 * preparation path: the body's default build and the daemon's batch
 * precompute both call it, so a cached Prepared is the one a
 * one-shot run would have built.
 */
driver::Prepared buildPrepared(const Experiment &ex);

/** The daemon's seam into the body; every default is "do nothing". */
class ServeHooks
{
  public:
    virtual ~ServeHooks() = default;

    /**
     * The Prepared matrix for @p source, built via @p build on a
     * miss. The default builds fresh every call (one-shot CLI).
     * Returned references must stay valid for the body's lifetime.
     */
    virtual const driver::Prepared &
    prepared(const std::string &source,
             const std::function<driver::Prepared()> &build);

    /**
     * Splice a batch-precomputed result for @p memoKey, true on a
     * hit. Hit results were produced by a shared lineup pass and are
     * bit-identical to what runKernel() would compute.
     */
    virtual bool lookupResult(const std::string &memoKey,
                              RunResult *out);

  private:
    // Storage for the default prepared(): the one-shot body needs
    // the built matrix to outlive the call.
    std::vector<std::unique_ptr<driver::Prepared>> owned_;
};

/**
 * Run one experiment (the pre-driver main body of simulate_cli).
 * Must run under a DriverSession; reports the result table through
 * the active ExecutionContext (stdout, or the daemon's response).
 */
int simulateBody(const Experiment &ex, ServeHooks *hooks = nullptr);

} // namespace serve
} // namespace unistc

#endif // UNISTC_SERVE_SIM_SERVICE_HH
