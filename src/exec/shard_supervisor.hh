/**
 * @file
 * Process supervisor for crash-isolated sharded sweeps
 * (docs/SHARDING.md).
 *
 * An in-process job cannot be killed mid-flight, so one hung or
 * crashing model bug takes the whole sweep down; this supervisor is
 * the simulator's only recovery layer. It moves the failure domain
 * out of the process: each shard runs as a fork/exec'd child with a
 * heartbeat pipe, and the supervisor enforces *hard* budgets — a
 * shard that exceeds its wall-clock budget or goes heartbeat-silent
 * is SIGKILLed, retried with exponential backoff up to a bounded
 * attempt count, and finally quarantined (its units report zeroed
 * results while the rest of the run completes) or, in strict mode,
 * fails the run.
 *
 * Child contract: the supervisor passes the heartbeat pipe's write
 * end via UNISTC_SHARD_HEARTBEAT_FD and the 0-based attempt number
 * via UNISTC_SHARD_ATTEMPT. Workers call shardHeartbeat() once at
 * startup and once per finished unit; crash recovery rides on the
 * shard manifest (exec/shard_plan.hh), so a retried attempt resumes
 * where the killed one durably left off.
 */

#ifndef UNISTC_EXEC_SHARD_SUPERVISOR_HH
#define UNISTC_EXEC_SHARD_SUPERVISOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "robust/status.hh"

namespace unistc
{

class StatRegistry;
class TraceSink;

/** Environment variable carrying the heartbeat pipe's write fd. */
inline constexpr const char *kShardHeartbeatFdEnv =
    "UNISTC_SHARD_HEARTBEAT_FD";

/** Environment variable carrying the 0-based attempt number. */
inline constexpr const char *kShardAttemptEnv = "UNISTC_SHARD_ATTEMPT";

/** Environment variable carrying injected process faults. */
inline constexpr const char *kShardFaultEnv = "UNISTC_SHARD_FAULT";

/**
 * Worker side: emit one heartbeat byte on the supervisor's pipe.
 * No-op when UNISTC_SHARD_HEARTBEAT_FD is unset (e.g. a worker run
 * by hand); EPIPE/EBADF are swallowed — a worker must never die
 * because its supervisor already gave up on it.
 */
void shardHeartbeat();

/** Worker side: 0-based attempt number from the environment. */
int shardAttemptFromEnv();

/** Kill/retry/quarantine policy one supervisor applies to all shards. */
struct ShardPolicy
{
    /** SIGKILL a shard running longer than this; 0 = no budget. */
    double maxShardSeconds = 0.0;

    /** SIGKILL a shard silent longer than this; 0 = no budget. */
    double heartbeatSeconds = 0.0;

    /** Retries after the first attempt (so maxRetries+1 attempts). */
    int maxRetries = 1;

    /** First retry delay; doubles on every further retry. */
    double backoffSeconds = 0.25;

    /**
     * On final failure: true quarantines the shard (run completes,
     * its units zeroed), false fails the whole run ("strict").
     */
    bool quarantine = true;
};

/** One child process to supervise (argv[0] is the executable). */
struct ShardProcess
{
    std::vector<std::string> argv;
};

/** What happened to one shard across all its attempts. */
struct ShardOutcome
{
    bool ok = false;          ///< Some attempt exited 0.
    bool quarantined = false; ///< All attempts failed; zeroed out.
    int attempts = 0;         ///< Attempts actually started.
    int killsWallClock = 0;   ///< SIGKILLs for wall-clock overrun.
    int killsHeartbeat = 0;   ///< SIGKILLs for heartbeat silence.
    int exitCode = -1;        ///< Last attempt's exit code (-1: signal).
    int termSignal = 0;       ///< Last attempt's fatal signal (0: none).
    std::uint64_t heartbeats = 0; ///< Beats received across attempts.
    std::string error;        ///< Human-readable failure summary.
};

/** Aggregate recovery tallies, surfaced as robust.shard_* stats. */
struct ShardRecoveryCounters
{
    std::uint64_t spawned = 0;        ///< Attempts fork/exec'd.
    std::uint64_t completed = 0;      ///< Shards that ended ok.
    std::uint64_t killedWallClock = 0;
    std::uint64_t killedHeartbeat = 0;
    std::uint64_t crashed = 0;        ///< Nonzero exit or signal.
    std::uint64_t retried = 0;        ///< Backoff restarts issued.
    std::uint64_t quarantined = 0;    ///< Shards given up on.
    std::uint64_t heartbeats = 0;     ///< Total beats received.
};

/**
 * Publish @p sc as robust.shard_* counters (plus robust.shard_count
 * = @p shards) into @p stats — the stats-JSON twin of
 * warehouse::BenchSink::noteShards, read back by `unistc_query
 * recovery`.
 */
void registerShardStats(StatRegistry &stats, int shards,
                        const ShardRecoveryCounters &sc);

/**
 * Babysits a set of shard children to completion. One-shot: build,
 * run(), read counters. POSIX-only (fork/exec); run() returns a
 * typed error elsewhere.
 */
class ShardSupervisor
{
  public:
    explicit ShardSupervisor(ShardPolicy policy) : policy_(policy) {}

    /**
     * Run all @p procs concurrently and supervise until every shard
     * is completed or quarantined. Returns one outcome per shard (in
     * input order), or an error when a shard fails in strict mode or
     * a spawn is impossible. @p trace, when given, receives instant
     * events for every spawn/kill/retry/quarantine on the Runner
     * track.
     */
    Result<std::vector<ShardOutcome>>
    run(const std::vector<ShardProcess> &procs,
        TraceSink *trace = nullptr);

    const ShardRecoveryCounters &counters() const { return counters_; }

  private:
    ShardPolicy policy_;
    ShardRecoveryCounters counters_;
};

} // namespace unistc

#endif // UNISTC_EXEC_SHARD_SUPERVISOR_HH
