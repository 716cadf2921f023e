/**
 * @file
 * Deterministic, seed-driven fault injection (docs/ROBUSTNESS.md).
 *
 * Two fault families:
 *
 *  - *Data faults* (FaultPlan): corrupt an in-memory BbcMatrix
 *    (bitmap bit-flips, NaN/Inf value injection) or a serialized
 *    byte image (truncation, garbled bytes), driven from one RNG
 *    stream so a failing campaign replays exactly from its seed.
 *    Tests use these to prove each validator/checksum detector
 *    fires.
 *
 *  - *Process faults* (ProcFaultSpec): make a whole shard worker
 *    abort, exit(N), hang forever, or crash mid-write, to exercise
 *    the ShardSupervisor's kill / retry / quarantine paths
 *    end-to-end (docs/SHARDING.md). Driven by the UNISTC_SHARD_FAULT
 *    environment variable so e2e tests stay deterministic.
 */

#ifndef UNISTC_ROBUST_FAULT_INJECT_HH
#define UNISTC_ROBUST_FAULT_INJECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "robust/status.hh"

namespace unistc
{

class BbcMatrix;

/** Corruption classes the robustness layer must detect or recover. */
enum class FaultKind
{
    BitmapLv1Flip,  ///< Flip one bit of a random Lv1 tile bitmap.
    BitmapLv2Flip,  ///< Flip one bit of a random Lv2 element bitmap.
    NanValue,       ///< Overwrite one stored value with quiet NaN.
    InfValue,       ///< Overwrite one stored value with +infinity.
    TruncateStream, ///< Cut a serialized byte image short.
    GarbleStream,   ///< XOR-garble one byte of a serialized image.
    ProcAbort,      ///< Shard worker calls abort() (SIGABRT).
    ProcExit,       ///< Shard worker _exit()s with a nonzero code.
    ProcHang,       ///< Shard worker hangs forever (heartbeat goes
                    ///< silent; only SIGKILL can end it).
    ProcPartialCrash, ///< Shard worker tears its in-flight manifest
                      ///< line, then dies (torn-tail recovery test).
};

/** Printable kind name ("BitmapLv1Flip", ...). */
const char *toString(FaultKind kind);

/**
 * One process-level fault a shard worker inflicts on itself, parsed
 * from the UNISTC_SHARD_FAULT environment variable. Spec syntax
 * (';'-separated list):
 *
 *     kind[:code]@shard[xN|x*][+U]
 *
 *   kind   abort | exit | hang | partial
 *   :code  exit status for `exit` (default 1)
 *   @shard target shard index, or @* for every shard
 *   xN     fault the first N attempts (default 1 — the retry heals);
 *          x* faults every attempt (forces quarantine)
 *   +U     complete U owned units before faulting (partial progress)
 *
 * e.g. "abort@1;hang@2x*;exit:3@0;partial@1+2".
 */
struct ProcFaultSpec
{
    FaultKind kind = FaultKind::ProcAbort;

    /** Target shard index; -1 means any shard. */
    int shard = -1;

    /** Exit status used by ProcExit. */
    int exitCode = 1;

    /** Attempts 0..N-1 fault; 0 means every attempt faults. */
    int attempts = 1;

    /** Owned units to complete before the fault fires. */
    std::uint64_t afterUnits = 0;
};

/** Parse a ';'-separated spec list; typed error on bad syntax. */
Result<std::vector<ProcFaultSpec>>
parseProcFaultSpecs(const std::string &text);

/**
 * The first spec that applies to @p shard on its @p attempt (0-based),
 * or null when this attempt runs clean.
 */
const ProcFaultSpec *matchProcFault(
    const std::vector<ProcFaultSpec> &specs, int shard, int attempt);

/**
 * Inflict @p spec on the calling process — never returns. For
 * ProcPartialCrash, appends the first half of @p partialLine (no
 * newline) to @p partialPath before dying, leaving exactly the torn
 * tail the durability machinery must survive.
 */
[[noreturn]] void executeProcFault(const ProcFaultSpec &spec,
                                   const std::string &partialPath = "",
                                   const std::string &partialLine = "");

/**
 * Seed-driven corruption engine. Every corrupt*() call draws from
 * the plan's RNG stream, so a campaign seeded with S applies the
 * identical byte/bit damage on every run.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(std::uint64_t seed) : rng_(seed) {}

    /**
     * Corrupt @p m in memory with a data-fault @p kind (a bitmap
     * flip or NaN/Inf class). Returns a human-readable description
     * of the exact damage ("flipped Lv1 bit 3 of block 17"), or ""
     * if the matrix has no site for that fault (e.g. empty).
     */
    std::string corruptBbc(BbcMatrix &m, FaultKind kind);

    /**
     * Corrupt a serialized byte image with a stream-fault @p kind.
     * Damage lands at or after @p minOffset, so callers can spare
     * the magic/version header when they mean to test payload
     * integrity. Returns a description of the damage, "" when the
     * image is too short to corrupt.
     */
    std::string corruptBytes(std::string &bytes, FaultKind kind,
                             std::size_t minOffset = 0);

  private:
    Rng rng_;
};

} // namespace unistc

#endif // UNISTC_ROBUST_FAULT_INJECT_HH
