/**
 * @file
 * Command-line simulator front-end: run any kernel on any matrix on
 * any modelled architecture.
 *
 *   simulate_cli --kernel spgemm --model all --gen banded:2048,24,0.4
 *   simulate_cli --kernel spmv --model Uni-STC --matrix my.mtx \
 *                --precision fp32 --dpgs 16 \
 *                --trace t.json --stats-json s.json
 *
 * Built on the execution driver (src/driver/): the experiment is a
 * plain serial body handed to a DriverSession, which supplies the
 * whole standard execution family — --jobs plan/replay sweeps
 * (docs/PARALLELISM.md), --log-level, --help and --version — with
 * byte-identical output across worker counts.
 *
 * The experiment parser and body live in src/serve/sim_service.hh,
 * SHARED with the unistc_serve daemon (docs/SERVING.md): a daemon
 * response is byte-identical to a one-shot run of this binary
 * because both execute exactly that code. See sim_service.hh for
 * the front-end flag family (--matrix/--gen/--kernel/--model/--arch/
 * --precision/--dpgs/--bcols/--save-bbc/--trace/--stats-json).
 */

#include <cstdio>
#include <vector>

#include "driver/driver_session.hh"
#include "driver/sweep_request.hh"
#include "driver/version.hh"
#include "serve/sim_service.hh"

using namespace unistc;

int
main(int argc, char **argv)
{
    const std::vector<driver::CliFlag> extra =
        serve::simulateCliFlags();
    Result<driver::ParsedCli> parsed =
        driver::parseSweepCli(argc, argv, extra);
    if (!parsed.ok())
        raise(parsed.status());
    driver::ParsedCli cli = std::move(parsed).value();
    if (cli.helpRequested) {
        std::fputs(driver::sweepCliHelp(argv[0], extra).c_str(),
                   stdout);
        return 0;
    }
    if (cli.versionRequested) {
        std::fputs(driver::versionString(argv[0]).c_str(), stdout);
        return 0;
    }

    // Resolve and validate every front-end flag BEFORE the driver
    // runs, so a typo'd experiment fails fast — not once per pass.
    serve::Experiment ex = serve::makeExperiment(cli);

    driver::DriverSession session;
    return session.run(cli.request, argc, argv, [&ex](int, char **) {
        return serve::simulateBody(ex);
    });
}
