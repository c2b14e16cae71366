/**
 * @file
 * One-pass multi-configuration simulation.
 *
 * Each frame's access stream is generated once and fanned out to every
 * registered consumer: cache simulators (CacheSim and friends), the
 * working-set statistics collector and the push-architecture model.
 * This is how all the parameter sweeps (Figures 9/10, Tables 2/3/5-8)
 * and `cache_explorer --sweep` are produced.
 *
 * Given a ThreadPool, each simulator is fed through its own SpanPipe
 * and consumes on a pool worker; every pipe is finished before the
 * frame is harvested, so all outputs match a run without a pool.
 */
#ifndef MLTC_SIM_MULTI_CONFIG_RUNNER_HPP
#define MLTC_SIM_MULTI_CONFIG_RUNNER_HPP

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cache_sim.hpp"
#include "core/push_model.hpp"
#include "obs/observability.hpp"
#include "sim/animation_driver.hpp"
#include "sim/resilience.hpp"
#include "trace/working_set_collector.hpp"
#include "util/error.hpp"

namespace mltc {

class ThreadPool;

/** Everything measured for one frame across all registered consumers. */
struct FrameRow
{
    int frame = 0;
    FrameStats raster;                    ///< pipeline counters
    std::vector<CacheFrameStats> sims;    ///< one per registered CacheSim
    std::optional<FrameWorkingSet> working_sets;
    uint64_t push_bytes = 0;              ///< oracle push memory (if enabled)
};

/** Per-frame observer; also receives the row after it is stored. */
using RowCallback = std::function<void(const FrameRow &)>;

/**
 * Per-simulator quarantine + crash-loop state, carried across
 * checkpoint/resume so a resumed run continues the same backoff ladder.
 */
struct SimQuarantine
{
    bool dead = false;        ///< not consuming accesses
    int at_frame = -1;        ///< frame of the most recent failure
    Error error;              ///< what it threw most recently
    uint32_t failures = 0;    ///< consecutive failures (clean frame resets)
    int revive_at_frame = -1; ///< scheduled restart frame (-1 = none)
};

/** One configuration a `cache_explorer --sweep` visits. */
struct SweepCandidate
{
    CacheSimConfig config;
    std::string label;
};

/**
 * The configurations `cache_explorer --sweep NAME` visits
 * (l1|l2|l2tile|tlb|policy|faults), each over @p host and with
 * @p classify_misses applied.
 * @throws mltc::Exception (BadArgument) for an unknown sweep name.
 */
std::vector<SweepCandidate> sweepCandidates(const std::string &sweep,
                                            const HostPathConfig &host,
                                            bool classify_misses);

/** Owns the consumers and runs the animation once. */
class MultiConfigRunner
{
  public:
    /**
     * @param workload the scene/animation to drive (must outlive the
     *        runner; its TextureManager is shared by all consumers)
     * @param config frame count, filter, resolution
     * @param pool borrowed workers the simulators consume on (null: the
     *        rasterizer's thread feeds them directly). The working-set,
     *        push-model and extra sinks always stay on that thread.
     */
    MultiConfigRunner(const Workload &workload, const DriverConfig &config,
                      ThreadPool *pool = nullptr);

    /** Register a cache simulator; returned reference stays valid. */
    CacheSim &addSim(const CacheSimConfig &config, std::string label);

    /** Register the working-set statistics collector (at most one). */
    WorkingSetCollector &addWorkingSets(std::vector<uint32_t> l2_tiles,
                                        std::vector<uint32_t> l1_tiles);

    /** Register the push-architecture oracle model (at most one). */
    PushArchitectureModel &addPushModel();

    /**
     * Attach an extra raw sink (e.g. SetAssocL2Sim); the caller handles
     * its frame boundaries via the row callback.
     */
    void addExtraSink(TexelAccessSink *sink);

    /**
     * Attach per-run observability (not owned; may be null to detach).
     * At every frame boundary the runner re-derives the registry's
     * counters/gauges from the simulators' cumulative totals, appends
     * one JSONL snapshot row, and emits per-simulator trace counter
     * tracks (L1/L2/TLB miss rates, AGP bytes). Metric state is derived,
     * never fed back, so attaching observability cannot change a single
     * simulated counter or checkpoint byte.
     */
    void setObservability(Observability *obs) { obs_ = obs; }

    /**
     * Run the animation; rows accumulate and @p cb fires per frame.
     * The same loop as runSupervised() with auditing off and nothing
     * checkpointed: a throwing simulator is quarantined, the clip
     * finishes, and then the first quarantined simulator's typed error
     * is rethrown.
     */
    void run(const RowCallback &cb = {});

    /**
     * Run under superviseRun(): periodic crash-safe checkpoints,
     * resume, per-frame deadline / wall-clock budget and cooperative
     * SIGINT/SIGTERM cancellation (install the handlers with
     * installCancellationHandlers()). Each frame is one step: revive
     * due simulators, render into the guarded fanout, harvest, and
     * audit every live simulator. With a default ResilienceConfig this
     * renders exactly what run() renders.
     *
     * A quarantined simulator stops consuming accesses; its partial
     * stats stay in the rows (zero deltas after the throwing frame) and
     * its error is recorded in the returned manifest while the
     * remaining configurations finish. The manifest is also written as
     * CSV to `<checkpoint>.manifest` when checkpointing is enabled.
     *
     * With rc.restart_limit > 0 a quarantined simulator is revived
     * (audit-gated, state intact) at an exponentially backed-off later
     * frame, at most restart_limit consecutive times — a crash-looping
     * configuration stays quarantined instead of burning the run's
     * budget. A clean frame resets the consecutive-failure count.
     */
    RunManifest runSupervised(const ResilienceConfig &rc,
                              const RowCallback &cb = {});

    /**
     * Write a crash-safe snapshot of the full runner state (every
     * simulator, working sets, push model, accumulated rows, quarantine
     * records) such that loadCheckpoint() + finishing the run equals an
     * uninterrupted run byte-for-byte.
     * @param next_frame the first frame a resume should render
     */
    void saveCheckpoint(const std::string &path, uint32_t next_frame) const;

    /**
     * Restore state written by saveCheckpoint() into an identically
     * configured runner (same sims in the same order, same labels, same
     * collectors).
     * @return the first frame to render, as stored (superviseRun()
     *         bounds-checks it)
     * @throws mltc::Exception — VersionMismatch on configuration skew,
     *         Truncated/BadMagic/Corrupt on damaged snapshots.
     */
    uint32_t loadCheckpoint(const std::string &path);

    /** All rows from the last run(). */
    const std::vector<FrameRow> &rows() const { return rows_; }

    /** Registered simulators, in registration order. */
    const std::vector<std::unique_ptr<CacheSim>> &sims() const
    {
        return sims_;
    }

    /**
     * Average per-frame host download bytes for simulator @p idx over
     * the last run.
     */
    double averageHostBytesPerFrame(size_t idx) const;

  private:
    /** Harvest one frame boundary into rows_. */
    void harvestRow(int frame, const FrameStats &fs, const RowCallback &cb);

    /** Derive metrics + trace counter tracks from the finished row. */
    void publishFrame(const FrameRow &row);

    /** Crash-loop containment: revive due simulators before @p frame. */
    void reviveQuarantined(const ResilienceConfig &rc, int frame);

    const Workload &workload_;
    DriverConfig config_;
    ThreadPool *pool_; ///< borrowed; null = consume on the caller
    std::vector<std::unique_ptr<CacheSim>> sims_;
    std::unique_ptr<WorkingSetCollector> working_sets_;
    std::unique_ptr<PushArchitectureModel> push_;
    std::vector<TexelAccessSink *> extra_sinks_;
    Observability *obs_ = nullptr; ///< not owned; null = no observability
    std::vector<FrameRow> rows_;
    std::vector<SimQuarantine> quarantine_; ///< parallel to sims_ (may be empty)
};

} // namespace mltc

#endif // MLTC_SIM_MULTI_CONFIG_RUNNER_HPP
