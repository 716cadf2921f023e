/**
 * @file
 * unistc_serve: the long-running simulation daemon (docs/SERVING.md).
 * Accepts simulate_cli requests as newline-delimited JSON over a
 * Unix-domain or loopback-TCP socket and answers each with the
 * byte-identical stdout a one-shot simulate_cli run would have
 * printed — while keeping decoded matrices hot, batching compatible
 * requests into shared engine lineups and shedding load past its
 * admission limits.
 *
 *   unistc_serve --socket /run/unistc.sock
 *   unistc_serve --port 7411 --max-queue 128 --max-inflight 8
 *
 * Once listening it prints exactly one readiness line to stdout:
 *
 *   unistc_serve listening on <address>
 *
 * (CI and the load generator wait for it.) Everything else goes to
 * stderr. SIGINT/SIGTERM — or a {"op":"shutdown"} request — stop the
 * daemon gracefully: in-flight work drains, open warehouse runs are
 * sealed.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "driver/version.hh"
#include "serve/serve_core.hh"
#include "serve/socket_server.hh"

using namespace unistc;

namespace
{

volatile std::sig_atomic_t g_signalled = 0;

void
onSignal(int)
{
    g_signalled = 1;
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "  --socket PATH          listen on a Unix-domain socket\n"
        "  --port N               listen on loopback TCP port N\n"
        "                         (0 = kernel-assigned, printed in\n"
        "                         the readiness line)\n"
        "  --max-queue N          queued requests before load\n"
        "                         shedding (default 64)\n"
        "  --max-inflight N       per-client in-flight quota\n"
        "                         (default 4)\n"
        "  --max-connections N    simultaneous connections\n"
        "                         (default 32)\n"
        "  --prepared-cache N     decoded matrices kept hot\n"
        "                         (default 8)\n"
        "  --log-level LEVEL      debug|info|warn|error|silent\n"
        "  --help, -h             this text\n"
        "  --version              build + schema versions\n"
        "\n"
        "Wire protocol, admission control and the ops runbook:\n"
        "docs/SERVING.md.\n",
        argv0);
}

/** Strict non-negative integer flag value; exits on garbage. */
long
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < 0)
        UNISTC_FATAL(flag, " needs a non-negative integer, got '",
                     text, "'");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServeOptions coreOpt;
    serve::SocketServerOptions sockOpt;
    bool haveAddress = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                UNISTC_FATAL(flag, " needs a value (see --help)");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--version") {
            std::fputs(driver::versionString(argv[0]).c_str(),
                       stdout);
            return 0;
        } else if (arg == "--socket") {
            sockOpt.unixPath = value("--socket");
            haveAddress = true;
        } else if (arg == "--port") {
            sockOpt.tcpPort = static_cast<int>(
                parseCount("--port", value("--port")));
            if (sockOpt.tcpPort > 65535)
                UNISTC_FATAL("--port must be <= 65535");
            haveAddress = true;
        } else if (arg == "--max-queue") {
            coreOpt.limits.maxQueue = static_cast<std::size_t>(
                parseCount("--max-queue", value("--max-queue")));
        } else if (arg == "--max-inflight") {
            coreOpt.limits.maxInflightPerClient =
                static_cast<std::size_t>(parseCount(
                    "--max-inflight", value("--max-inflight")));
        } else if (arg == "--max-connections") {
            sockOpt.maxConnections = static_cast<std::size_t>(
                parseCount("--max-connections",
                           value("--max-connections")));
        } else if (arg == "--prepared-cache") {
            coreOpt.preparedCacheCap = static_cast<std::size_t>(
                parseCount("--prepared-cache",
                           value("--prepared-cache")));
        } else if (arg == "--log-level") {
            LogLevel level;
            const char *text = value("--log-level");
            if (!parseLogLevel(text, level))
                UNISTC_FATAL("unknown --log-level '", text, "'");
            setLogLevel(level);
        } else {
            UNISTC_FATAL("unknown option '", arg,
                         "' (see --help)");
        }
    }
    if (!haveAddress)
        UNISTC_FATAL("pick an address: --socket PATH or --port N "
                     "(see --help)");
    if (coreOpt.preparedCacheCap == 0)
        UNISTC_FATAL("--prepared-cache must be >= 1");

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
#ifdef SIGPIPE
    // A client hanging up mid-response must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);
#endif
    sockOpt.stopPredicate = [] { return g_signalled != 0; };

    serve::ServeCore core(coreOpt);
    serve::SocketServer server(core, sockOpt);
    if (Status s = server.start(); !s.ok())
        UNISTC_FATAL("unistc_serve: ", s.message());

    // The readiness line — the only stdout the daemon ever prints.
    std::printf("unistc_serve listening on %s\n",
                server.address().c_str());
    std::fflush(stdout);

    server.run();
    core.stop();
    UNISTC_INFORM("unistc_serve: stopped");
    return 0;
}
