/**
 * @file
 * The unistc_serve wire protocol: newline-delimited JSON request and
 * response records (docs/SERVING.md). One request per line, one
 * response per line, correlated by a client-chosen id — simple enough
 * for `nc` and jq, structured enough for the load generator.
 *
 * A request's argv is the simulate_cli flag tail (no binary name):
 * the daemon parses it through driver::parseSweepCli with the
 * simulate front-end's flag family, so the wire grammar IS the CLI
 * grammar and cannot drift from it.
 *
 * Encoding uses obs/json_writer.hh in compact mode and decoding uses
 * obs/json_reader.hh, so escaping and number round-trips follow the
 * repo's one audited JSON contract.
 */

#ifndef UNISTC_DRIVER_WIRE_CODEC_HH
#define UNISTC_DRIVER_WIRE_CODEC_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "robust/status.hh"

namespace unistc
{
namespace driver
{

/** One client request line. */
struct WireRequest
{
    /** Echoed verbatim in the response; client-chosen. */
    std::string id;

    /** "run" | "ping" | "stats" | "shutdown" (default "run"). */
    std::string op = "run";

    /**
     * Quota bucket for per-client admission control. Optional on the
     * wire: the server falls back to a per-connection identity.
     */
    std::string client;

    /** Warehouse label for this request's run (docs/WAREHOUSE.md). */
    std::string label;

    /** simulate_cli flags, binary name excluded. */
    std::vector<std::string> argv;
};

/** One server response line. */
struct WireResponse
{
    std::string id; ///< The request's id, echoed.

    /** "ok" | "error" | "rejected" (rejected = load shed). */
    std::string status = "ok";

    /** The simulation body's exit code ("run" responses). */
    int exitCode = 0;

    /**
     * The run's report text — byte-identical to the stdout of a
     * one-shot simulate_cli execution of the same argv.
     */
    std::string output;

    /** Human-readable reason for "error"/"rejected". */
    std::string error;

    /** Counter snapshot ("stats" and "shutdown" responses). */
    std::map<std::string, std::uint64_t> counters;
};

/** Compact one-line JSON, no trailing newline. */
std::string encodeRequest(const WireRequest &req);
std::string encodeResponse(const WireResponse &resp);

/**
 * Decode one NDJSON line. Typed errors (never fatals) on malformed
 * JSON, wrong field types, or an unknown op — the daemon turns them
 * into "rejected" responses and stays up.
 */
Result<WireRequest> decodeRequest(const std::string &line);
Result<WireResponse> decodeResponse(const std::string &line);

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_WIRE_CODEC_HH
