/**
 * @file
 * Parallel sweep executor: runs independent simulation legs (one leg ==
 * one MultiConfigRunner pass, or one trace replay) concurrently while
 * keeping every observable output byte-identical to the serial run and
 * invariant to thread count.
 *
 * Determinism model — compute in parallel, emit in order:
 *
 *  - legs never share mutable state: legs may read one immutable
 *    Workload (its TextureManager layout cache takes a mutex), but each
 *    owns its runner and its sims (so fault-injection RNG streams are
 *    per-leg exactly as in the serial program) and writes results only
 *    into its own slot;
 *  - console output produced inside a leg goes through
 *    LegContext::printf into a per-leg buffer; SweepExecutor flushes
 *    buffers to stdout strictly in leg registration order (streaming:
 *    leg i prints the moment legs 0..i-1 have printed, even while later
 *    legs are still running);
 *  - CSV/metrics/snapshot emission stays in the drivers, which write
 *    from per-leg results after (or in order during) run() — so the
 *    bytes on disk cannot depend on completion order.
 *
 * Failure containment mirrors the per-sim quarantine of runSupervised:
 * an exception escaping a leg marks that leg Failed in the
 * SweepManifest and the remaining legs still run. Cooperative
 * cancellation (SIGINT/SIGTERM or requestCancellation()) marks every
 * leg not yet started Cancelled; already-running legs observe the same
 * flag at frame boundaries via their own supervised gates.
 *
 * See docs/parallelism.md for the full contract.
 */
#ifndef MLTC_SIM_PARALLEL_RUNNER_HPP
#define MLTC_SIM_PARALLEL_RUNNER_HPP

#include <cstdarg>
#include <functional>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace mltc {

class TelemetryServer;
class ThreadPool;

/** How a sweep leg ended. */
enum class LegOutcome
{
    Completed, ///< ran to the end
    Failed,    ///< an exception escaped the leg body
    Cancelled, ///< cancellation arrived before the leg started
};

const char *legOutcomeName(LegOutcome outcome);

/** Per-leg record in the sweep manifest. */
struct LegResult
{
    std::string name;
    LegOutcome outcome = LegOutcome::Cancelled;
    std::string error; ///< exception text when outcome == Failed
};

/** Outcome summary for a whole sweep. */
struct SweepManifest
{
    std::vector<LegResult> legs;
};

/**
 * Handed to each leg body: identifies the leg and buffers its console
 * output for in-order flushing.
 */
class LegContext
{
public:
    LegContext(size_t index, std::string name)
        : index_(index), name_(std::move(name))
    {
    }

    size_t index() const { return index_; }
    const std::string &name() const { return name_; }

    /** Buffered stand-in for std::printf. */
    void printf(const char *fmt, ...)
#if defined(__GNUC__)
        __attribute__((format(printf, 2, 3)))
#endif
        ;

    /** Append raw text to the leg's console buffer. */
    void write(const std::string &text) { out_ += text; }

    const std::string &buffered() const { return out_; }

private:
    size_t index_;
    std::string name_;
    std::string out_;
};

/**
 * Executor for independent sweep legs, one parallelFor() over them.
 *
 * Usage:
 *   SweepExecutor sweep(pool); // borrowed; null runs the legs serially
 *   sweep.addLeg("village/bilinear", [&](LegContext &ctx) { ... });
 *   SweepManifest manifest = sweep.run();
 *
 * The pool's workers and the thread calling run() take legs together,
 * so run() may be called from a task of the same pool. Outputs are
 * emitted in registration order whichever thread ran which leg, so a
 * null pool and any pool produce identical bytes.
 */
class SweepExecutor
{
public:
    /**
     * Run the legs on @p pool (borrowed, so other work the legs submit
     * shares its workers) and the calling thread; null runs every leg
     * inline in registration order.
     */
    explicit SweepExecutor(ThreadPool *pool) : pool_(pool) {}

    /** Register a leg; legs run (or at least emit) in this order. */
    void addLeg(std::string name, std::function<void(LegContext &)> body);

    /**
     * Publish live per-leg status (pending/running/completed/...) to
     * @p telemetry's /runz endpoint as legs progress (null detaches;
     * not owned). Pure observation: the sweep's outputs and scheduling
     * are byte-identical with or without a server attached.
     */
    void setTelemetry(TelemetryServer *telemetry)
    {
        telemetry_ = telemetry;
    }

    /**
     * Run every leg and stream each leg's buffered console output to
     * stdout in registration order: leg i prints as soon as it and
     * every earlier leg finished. Returns the manifest; exceptions
     * from leg bodies are captured there, never thrown.
     */
    SweepManifest run();

private:
    struct Leg
    {
        std::string name;
        std::function<void(LegContext &)> body;
    };

    void publishLegStatus(const std::vector<const char *> &status) const;

    ThreadPool *pool_; ///< borrowed; null: serial
    std::vector<Leg> legs_;
    TelemetryServer *telemetry_ = nullptr;
};

/**
 * Parse the shared --jobs=N flag (0 or absent = default policy:
 * MLTC_JOBS env, else hardware concurrency).
 * @throws mltc::Exception (BadArgument) on malformed or negative N.
 */
unsigned jobsFromCli(const CommandLine &cli);

} // namespace mltc

#endif // MLTC_SIM_PARALLEL_RUNNER_HPP
