/**
 * @file
 * Supervision for long-running simulations: the resilience knobs,
 * cooperative cancellation, and the one supervision loop that both
 * MultiConfigRunner::runSupervised() (frames of a sweep) and
 * MultiStreamRunner::run() (rounds of a serving run) drive.
 *
 * Three coordinated pieces (see docs/checkpoint_format.md and
 * docs/fault_model.md):
 *
 *  - crash-safe checkpoint/resume of the full simulator state, so a
 *    killed run finishes from its last checkpoint with byte-identical
 *    CSV output;
 *  - the always-on state invariant auditor (core/audit.hpp), run at
 *    step and checkpoint boundaries;
 *  - watchdog supervision: a per-step deadline, a wall-clock budget,
 *    and SIGINT/SIGTERM handlers that request a final checkpoint at the
 *    next step boundary instead of dying mid-write.
 *
 * superviseRun() owns that policy; a runner supplies only its steps,
 * its snapshot save/load, its telemetry documents and its manifest
 * entries (SupervisedSteps).
 *
 * All knobs flow through resilienceFromCli() so every bench and example
 * exposes the same flags: --checkpoint=PATH, --checkpoint-every=N,
 * --resume, --deadline-ms=D, --budget-ms=B, --audit=LEVEL,
 * --restart-limit=N (sweeps only).
 */
#ifndef MLTC_SIM_RESILIENCE_HPP
#define MLTC_SIM_RESILIENCE_HPP

#include <functional>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace mltc {

class Observability;

/** Supervision knobs for superviseRun(). A "step" is one frame of a
 *  sweep or one round of a multi-stream run. */
struct ResilienceConfig
{
    /** Checkpoint file; empty disables checkpointing entirely. */
    std::string checkpoint_path;

    /** Checkpoint every N steps (0 = only at the end of the run). */
    uint32_t checkpoint_every = 0;

    /** Resume from checkpoint_path instead of starting at step 0. */
    bool resume = false;

    /**
     * Per-step wall-clock deadline in milliseconds; a step exceeding
     * it stops the run at its boundary with a checkpoint (0 = no
     * deadline).
     */
    double frame_deadline_ms = 0.0;

    /** Whole-run wall-clock budget in milliseconds (0 = unlimited). */
    double wall_budget_ms = 0.0;

    /** Invariant auditing at step boundaries. */
    AuditLevel audit = AuditLevel::Cheap;

    /**
     * Crash-path test hook: raise SIGKILL immediately after the Nth
     * periodic checkpoint commits (0 = disabled). Lets tests and
     * scripts/kill_resume.sh kill a run at a deterministic point.
     */
    uint32_t die_after_checkpoints = 0;

    /**
     * Crash-loop containment: revive a quarantined simulator after an
     * exponential frame backoff and a clean audit, up to this many
     * consecutive failures — one more and it stays quarantined for the
     * rest of the run. A clean frame resets the consecutive count.
     * 0 = never revive (quarantine is permanent). Sweeps only: a
     * multi-stream run rejects a non-zero limit.
     */
    uint32_t restart_limit = 0;
};

/**
 * Per-leg resilience for a driver that runs several supervised runners
 * in one process: each leg checkpoints to `<checkpoint><suffix>`. On
 * --resume a leg whose checkpoint does not exist yet (the crash came
 * before its first commit) starts fresh; a finished leg resumes at its
 * end, a cheap no-op.
 */
ResilienceConfig legResilience(const ResilienceConfig &base,
                               const std::string &suffix);

/** How a supervised run ended. */
enum class RunOutcome : uint8_t
{
    Completed,        ///< every step ran
    Cancelled,        ///< SIGINT/SIGTERM (checkpointed at the boundary)
    DeadlineExceeded, ///< a step overran --deadline-ms
    BudgetExhausted,  ///< the run overran --budget-ms
};

/** Stable name of @p outcome for the manifest. */
const char *runOutcomeName(RunOutcome outcome);

/** Per-entity record in the run manifest: a simulator or a stream. */
struct ManifestEntry
{
    std::string label;
    bool quarantined = false;      ///< threw and was isolated
    int quarantined_at = -1;       ///< step of the most recent failure
    Error error;                   ///< what it threw
    uint32_t restart_failures = 0; ///< consecutive failures at run end
};

/**
 * Result of a supervised run: how it ended, how far it got, and the
 * status of every entity. Written next to the checkpoint as
 * `<checkpoint>.manifest` (CSV).
 */
struct RunManifest
{
    RunOutcome outcome = RunOutcome::Completed;
    int frames_completed = 0;  ///< steps completed over the run's lifetime
    int next_frame = 0;        ///< where a resume would continue
    std::string checkpoint;    ///< final checkpoint path ("" if none)
    int checkpoint_write_failures = 0; ///< commits skipped on I/O failure
    std::vector<ManifestEntry> entries;

    /** Number of quarantined entities. */
    size_t quarantinedCount() const;
};

/** What a runner hands superviseRun(). */
struct SupervisedSteps
{
    /** Steps in the whole run. */
    uint32_t count = 0;
    /** Manifest record name of each entry ("sim", "stream"). */
    const char *entity = "sim";
    /** Run step @p i. Exceptions propagate out of superviseRun(). */
    std::function<void(uint32_t i)> step;
    /** Write a checkpoint a resume continues from at step @p next. */
    std::function<void(const std::string &path, uint32_t next)> save;
    /** Restore a checkpoint; returns the step it continues from. */
    std::function<uint32_t(const std::string &path)> load;
    /** Publish the /healthz and /runz documents. */
    std::function<void(const char *status, uint32_t next,
                       int checkpoint_write_failures)>
        publish;
    /** The per-entity manifest entries at the end of the run. */
    std::function<std::vector<ManifestEntry>()> entries;
};

/**
 * The supervision loop. Before each step it polls cancellation and the
 * wall budget and marks flightFrame(i); after each step it applies the
 * per-step deadline, commits periodic checkpoints (an I/O failure
 * skips ahead with doubling backoff and counts
 * `checkpoint.write_failed`; the SIGKILL test hook fires after the Nth
 * commit) and publishes telemetry. At the end it writes the final
 * checkpoint and `<checkpoint>.manifest`, lands the watchdog/io flight
 * bundles and flushes @p obs (may be null).
 * @throws mltc::Exception — BadArgument for --resume without a
 *         checkpoint, Corrupt for a resume step beyond the run, and
 *         whatever load() or a step throws.
 */
RunManifest superviseRun(const ResilienceConfig &rc,
                         const SupervisedSteps &steps, Observability *obs);

/**
 * Build a ResilienceConfig from the shared command-line flags.
 * @throws mltc::Exception (BadArgument) on malformed values.
 */
ResilienceConfig resilienceFromCli(const CommandLine &cli);

/**
 * Install SIGINT/SIGTERM handlers that set the cancellation flag. The
 * handlers only flip an atomic flag; superviseRun() polls it at step
 * boundaries and performs the final checkpoint itself.
 */
void installCancellationHandlers();

/** True once SIGINT/SIGTERM arrived (or requestCancellation() ran). */
bool cancellationRequested();

/** Programmatic cancellation (tests; same path as the signals). */
void requestCancellation();

/** Clear the flag (between supervised runs in one process). */
void clearCancellation();

} // namespace mltc

#endif // MLTC_SIM_RESILIENCE_HPP
