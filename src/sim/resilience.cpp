#include "sim/resilience.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>

#include "obs/flight_recorder.hpp"
#include "obs/observability.hpp"
#include "util/csv.hpp"
#include "util/io.hpp"
#include "util/log.hpp"

namespace mltc {

ResilienceConfig
resilienceFromCli(const CommandLine &cli)
{
    ResilienceConfig rc;
    rc.checkpoint_path = cli.getString("checkpoint", "");
    rc.checkpoint_every =
        static_cast<uint32_t>(cli.getUnsigned("checkpoint-every", 0));
    rc.resume = cli.getFlag("resume");
    rc.frame_deadline_ms = cli.getDouble("deadline-ms", 0.0);
    rc.wall_budget_ms = cli.getDouble("budget-ms", 0.0);
    rc.audit = parseAuditLevel(cli.getString("audit", "cheap").c_str());
    rc.die_after_checkpoints =
        static_cast<uint32_t>(cli.getUnsigned("die-after-checkpoint", 0));
    rc.restart_limit =
        static_cast<uint32_t>(cli.getUnsigned("restart-limit", 0));
    if (rc.frame_deadline_ms < 0.0)
        throw Exception(ErrorCode::BadArgument,
                        "--deadline-ms: must be non-negative");
    if (rc.wall_budget_ms < 0.0)
        throw Exception(ErrorCode::BadArgument,
                        "--budget-ms: must be non-negative");
    if (rc.resume && rc.checkpoint_path.empty())
        throw Exception(ErrorCode::BadArgument,
                        "--resume: requires --checkpoint=PATH");
    if ((rc.checkpoint_every > 0 || rc.die_after_checkpoints > 0) &&
        rc.checkpoint_path.empty())
        throw Exception(ErrorCode::BadArgument,
                        "--checkpoint-every: requires --checkpoint=PATH");
    return rc;
}

ResilienceConfig
legResilience(const ResilienceConfig &base, const std::string &suffix)
{
    ResilienceConfig rc = base;
    if (rc.checkpoint_path.empty())
        return rc;
    rc.checkpoint_path += suffix;
    if (rc.resume && !FileBackend::instance().exists(rc.checkpoint_path))
        rc.resume = false;
    return rc;
}

const char *
runOutcomeName(RunOutcome outcome)
{
    switch (outcome) {
      case RunOutcome::Completed: return "completed";
      case RunOutcome::Cancelled: return "cancelled";
      case RunOutcome::DeadlineExceeded: return "deadline-exceeded";
      case RunOutcome::BudgetExhausted: return "budget-exhausted";
    }
    return "?";
}

size_t
RunManifest::quarantinedCount() const
{
    return static_cast<size_t>(
        std::count_if(entries.begin(), entries.end(),
                      [](const ManifestEntry &e) { return e.quarantined; }));
}

namespace {

void
writeManifest(const RunManifest &manifest, const char *entity)
{
    auto sanitize = [](std::string s) {
        for (char &c : s)
            if (c == ',' || c == '\n' || c == '\r')
                c = ';';
        return s;
    };

    CsvWriter csv(manifest.checkpoint + ".manifest",
                  {"record", "label", "status", "frames_completed",
                   "next_frame", "error_code", "error",
                   "checkpoint_failures"});
    csv.rowStrings({"run", "", runOutcomeName(manifest.outcome),
                    std::to_string(manifest.frames_completed),
                    std::to_string(manifest.next_frame), "", "",
                    std::to_string(manifest.checkpoint_write_failures)});
    for (const ManifestEntry &e : manifest.entries) {
        csv.rowStrings({entity, sanitize(e.label),
                        e.quarantined ? "quarantined" : "ok",
                        e.quarantined ? std::to_string(e.quarantined_at)
                                      : "",
                        "",
                        e.quarantined ? errorCodeName(e.error.code) : "",
                        e.quarantined ? sanitize(e.error.message) : "",
                        std::to_string(e.restart_failures)});
    }
    csv.close();
}

} // namespace

RunManifest
superviseRun(const ResilienceConfig &rc, const SupervisedSteps &steps,
             Observability *obs)
{
    using Clock = std::chrono::steady_clock;
    const auto elapsed_ms = [](Clock::time_point since) {
        return std::chrono::duration<double, std::milli>(Clock::now() - since)
            .count();
    };

    uint32_t next = 0;
    if (rc.resume) {
        if (rc.checkpoint_path.empty())
            throw Exception(ErrorCode::BadArgument,
                            "--resume: requires --checkpoint=PATH");
        next = steps.load(rc.checkpoint_path);
        if (next > steps.count)
            throw Exception(ErrorCode::Corrupt,
                            "checkpoint " + rc.checkpoint_path +
                                ": resume step " + std::to_string(next) +
                                " is beyond the run's " +
                                std::to_string(steps.count) + " steps");
    }

    RunOutcome outcome = RunOutcome::Completed;
    int write_failures = 0;
    uint32_t commits = 0;
    uint64_t backoff = 0;  ///< doubling skip multiplier (0 = healthy)
    uint64_t retry_at = 0; ///< first step boundary allowed to commit again
    const Clock::time_point run_start = Clock::now();

    steps.publish("serving", next, write_failures);
    while (next < steps.count) {
        if (cancellationRequested()) {
            outcome = RunOutcome::Cancelled;
            break;
        }
        if (rc.wall_budget_ms > 0.0 &&
            elapsed_ms(run_start) >= rc.wall_budget_ms) {
            outcome = RunOutcome::BudgetExhausted;
            break;
        }

        const Clock::time_point step_start = Clock::now();
        flightFrame(next);
        steps.step(next);
        ++next;

        if (rc.frame_deadline_ms > 0.0 &&
            elapsed_ms(step_start) > rc.frame_deadline_ms) {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }

        if (!rc.checkpoint_path.empty() && rc.checkpoint_every > 0 &&
            next % rc.checkpoint_every == 0 && next >= retry_at) {
            try {
                steps.save(rc.checkpoint_path, next);
                backoff = 0;
                retry_at = 0;
                event("checkpoint.saved", "runner");
                // Crash-path test hook: die *after* the checkpoint
                // committed, leaving exactly the state a real crash
                // would (stdio flushed, as a crash after it would find).
                if (rc.die_after_checkpoints > 0 &&
                    ++commits >= rc.die_after_checkpoints) {
                    std::fflush(nullptr);
                    std::raise(SIGKILL);
                }
            } catch (const Exception &e) {
                // Checkpointing is an optimisation, not a correctness
                // requirement: degrade to skip-with-backoff (the next
                // attempt waits exponentially more checkpoint periods)
                // instead of aborting a healthy simulation.
                ++write_failures;
                backoff = std::min<uint64_t>(backoff ? backoff * 2 : 1, 64);
                retry_at = next + backoff * rc.checkpoint_every;
                logWarn("superviseRun: checkpoint write failed (" +
                        e.error().describe() + "); retrying at step " +
                        std::to_string(retry_at));
                if (obs) {
                    auto guard = obs->metrics().updateGuard();
                    obs->metrics().counter("checkpoint.write_failed").inc();
                }
                event("checkpoint.write_failed", "resilience");
            }
        }

        steps.publish("serving", next, write_failures);
    }

    if (outcome == RunOutcome::DeadlineExceeded ||
        outcome == RunOutcome::BudgetExhausted)
        flightDump("watchdog");

    // Make every telemetry row/event up to the last complete step
    // durable even if the process is killed before close(). The
    // metrics JSONL sink flushes per line already; the trace buffer is
    // the one that loses data.
    if (obs)
        obs->flush();
    else if (ChromeTraceWriter *t = hooks().tracer())
        t->flush();

    RunManifest manifest;
    manifest.outcome = outcome;
    manifest.frames_completed = static_cast<int>(next);
    manifest.next_frame = static_cast<int>(next);
    manifest.checkpoint = rc.checkpoint_path;
    manifest.entries = steps.entries();
    if (!manifest.checkpoint.empty()) {
        try {
            steps.save(manifest.checkpoint, next);
        } catch (const Exception &e) {
            // The results are already in the runner's rows; a final
            // checkpoint that cannot land must not erase them.
            ++write_failures;
            logWarn("superviseRun: final checkpoint write failed (" +
                    e.error().describe() + ")");
            flightDump("io");
        }
    }
    manifest.checkpoint_write_failures = write_failures;
    if (!manifest.checkpoint.empty()) {
        try {
            writeManifest(manifest, steps.entity);
        } catch (const Exception &e) {
            logWarn("superviseRun: manifest write failed (" +
                    e.error().describe() + ")");
        }
    }
    steps.publish(runOutcomeName(outcome), next, write_failures);
    return manifest;
}

namespace {

// Lock-free atomic rather than volatile sig_atomic_t: the handler may
// fire on any thread while sweep workers poll the flag concurrently, so
// the flag must be both async-signal-safe (lock-free atomic store) and
// a proper synchronisation point for the data-race checker. C++ only
// guarantees signal handler use of std::atomic when it is lock-free;
// int is on every platform we target.
std::atomic<int> g_cancel_requested{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "cancellation flag must be async-signal-safe");

void
cancelHandler(int)
{
    // Async-signal-safe: only flip the flag; every run loop (on any
    // worker thread) polls it at frame boundaries and writes its final
    // checkpoint from normal context.
    g_cancel_requested.store(1, std::memory_order_relaxed);
}

} // namespace

void
installCancellationHandlers()
{
    std::signal(SIGINT, cancelHandler);
    std::signal(SIGTERM, cancelHandler);
}

bool
cancellationRequested()
{
    return g_cancel_requested.load(std::memory_order_relaxed) != 0;
}

void
requestCancellation()
{
    g_cancel_requested.store(1, std::memory_order_relaxed);
}

void
clearCancellation()
{
    g_cancel_requested.store(0, std::memory_order_relaxed);
}

} // namespace mltc
