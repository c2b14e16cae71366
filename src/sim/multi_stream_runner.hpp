/**
 * @file
 * Multi-tenant serving runner: K independent camera streams share one
 * L2 texture cache.
 *
 * Each tenant stream renders its own workload (Village / City at its
 * own camera phase and filter mode, or the synthetic "thrasher" that
 * streams through twice the L2 capacity every round) into a private
 * L1, and all L1 misses meet in a single shared L2TextureCache whose
 * share policy is Shared (free-for-all), Static (hard partitions) or
 * Utility (online quota repartitioning from per-stream reuse-distance
 * miss-ratio curves).
 *
 * Determinism model — private caches in parallel, shared L2 in order:
 *
 *  - a round is one frame per stream. The live streams' legs are one
 *    parallelFor() on the run's pool, whose workers and the calling
 *    thread take them together. Each leg renders into its own
 *    CacheSim, so the private work (rasterization, the L1
 *    filter/probe/fill, the stream's reuse-distance tracker) runs
 *    concurrently and touches only that stream's state. A round is
 *    atomic: every live stream renders it, and cancellation is seen
 *    only between rounds. The producer reaches the sim through the
 *    stream's SpanPipe, which delivers in order on the run's pool, so
 *    a stream's rasterizer and its L1 overlap as well. The sim queues
 *    each L1 miss instead of looking it up in the shared L2
 *    (CacheSim::attachSharedL2);
 *  - the shared L2 is mutable state, so the queued misses are drained
 *    into it strictly serially in stream order, by each stream's
 *    endFrame() at harvest. The L2 sees the same lookup sequence for
 *    any --jobs value, so every counter, CSV and checkpoint is
 *    invariant to it.
 *
 * Robustness mirrors MultiConfigRunner, under the same supervision
 * loop (superviseRun()): a stream that throws is quarantined (its
 * shared-L2 blocks are released to the survivors and it stops
 * participating), rounds checkpoint to a crash-safe snapshot, and
 * overload is shed gracefully — a stream exceeding its host
 * bandwidth budget gets an LOD bias applied to its next rounds (the
 * MIP-fallback idea turned into admission control) instead of stalling
 * the other tenants.
 */
#ifndef MLTC_SIM_MULTI_STREAM_RUNNER_HPP
#define MLTC_SIM_MULTI_STREAM_RUNNER_HPP

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cache_sim.hpp"
#include "host/bandwidth.hpp"
#include "obs/reuse_profiler.hpp"
#include "raster/sampler.hpp"
#include "sim/resilience.hpp"
#include "workload/workload.hpp"

namespace mltc {

class Observability;
class Rasterizer;
class SloTracker;
class SpanPipe;
class ThreadPool;

/** Name of the synthetic L2-thrashing workload. */
inline constexpr const char *kThrasherWorkload = "thrasher";

/** One tenant stream's configuration. */
struct StreamSpec
{
    /** Workload name ("village", "city" or kThrasherWorkload). */
    std::string workload = "village";
    FilterMode filter = FilterMode::Bilinear;
    /** Camera phase offset in frames (staggers the animation). */
    uint32_t phase = 0;
    /** Per-stream seed (procedural content / future fault streams). */
    uint64_t seed = 0;
    /**
     * Test hook: quarantine this stream with a Transient fault at the
     * start of this round (-1 = never). Round 0 means the stream never
     * contributes a single access.
     */
    int fail_at_round = -1;
};

/** Whole-run configuration. */
struct MultiStreamConfig
{
    int width = 320;
    int height = 240;
    /** Rounds to run; one round = one frame per stream. */
    uint32_t rounds = 16;
    uint64_t l1_bytes = 16ull << 10;
    uint64_t l2_bytes = 1ull << 20;
    uint32_t l2_tile = 16;
    uint32_t l1_tile = 4;
    L2SharePolicy share = L2SharePolicy::Shared;
    /** Per-stream host budget per round in bytes (0 = unlimited). */
    uint64_t stream_budget_bytes = 0;
    /** Re-derive Utility quotas every N rounds (0 = never). */
    uint32_t repartition_every = 8;
    /**
     * Threads the run works on: the calling thread and a pool of
     * jobs - 1 workers (jobsPool()), which build the workloads and
     * share the per-stream legs and their span pipes (1 runs everything
     * on the calling thread; 0 means ThreadPool::defaultJobs()); the
     * shared-L2 drain is always serial.
     */
    unsigned jobs = 1;
    /** Run the 3C classifiers beside every stream's caches. */
    bool classify_misses = false;
    /**
     * Test hook: sleep this long at the end of every round so an
     * external scraper reliably lands mid-run. Pure wall-clock — no
     * effect on any output byte — and deliberately excluded from the
     * checkpoint fingerprint.
     */
    uint32_t round_sleep_ms = 0;
    std::vector<StreamSpec> streams;
};

/** One stream's per-round report row. */
struct StreamRoundRow
{
    uint32_t round = 0;
    uint64_t accesses = 0;
    uint64_t l1_misses = 0;
    uint64_t l2_full_hits = 0;
    uint64_t l2_partial_hits = 0;
    uint64_t l2_full_misses = 0;
    uint64_t host_bytes = 0;
    uint64_t cross_evictions = 0; ///< blocks this stream stole (cumulative)
    uint64_t quota_blocks = 0;
    uint64_t alloc_blocks = 0;
    uint32_t lod_bias = 0;
    uint8_t noisy = 0;       ///< flagged by the noisy-neighbor detector
    uint8_t quarantined = 0; ///< 1 on the stream's final (fault) row
};

/**
 * The runner. Construct, optionally attach Observability, call run().
 */
class MultiStreamRunner
{
  public:
    /**
     * Build every stream (workloads, private L1 sims, shared L2). Each
     * distinct workload is built once, with its textures synthesized
     * on the runner's pool, and shared by the tenants that name it.
     * @throws std::invalid_argument on an empty stream list, an
     *         unknown workload name or an invalid share configuration.
     */
    explicit MultiStreamRunner(const MultiStreamConfig &config);

    ~MultiStreamRunner();

    MultiStreamRunner(const MultiStreamRunner &) = delete;
    MultiStreamRunner &operator=(const MultiStreamRunner &) = delete;

    const MultiStreamConfig &config() const { return cfg_; }

    /** Attach metrics/tracing sinks (null detaches; not owned). */
    void setObservability(Observability *obs) { obs_ = obs; }

    /**
     * Run (or resume) the configured rounds under superviseRun(), one
     * round per step. Returns the manifest (one "stream" entry per
     * tenant, also written as `<checkpoint>.manifest`); per-stream
     * faults are quarantined into it, never thrown. A quarantined
     * tenant is never revived.
     * @throws mltc::Exception — BadArgument for a non-zero
     *         res.restart_limit or an unknown SLO metric;
     *         VersionMismatch / Corrupt resume snapshots; a shared-L2
     *         audit violation.
     */
    RunManifest run(const ResilienceConfig &res);

    uint32_t streamCount() const
    {
        return static_cast<uint32_t>(streams_.size());
    }

    /** The shared L2. */
    const L2TextureCache &l2() const { return *l2_; }

    /** Stream @p i's textures (one manager per distinct workload). */
    const TextureManager &textures(uint32_t i) const
    {
        return streams_[i]->textures();
    }

    /** Stream @p i's private simulator. */
    const CacheSim &sim(uint32_t i) const { return *streams_[i]->sim; }

    /** Stream @p i's display name ("<index>:<workload>/<filter>"). */
    const std::string &streamName(uint32_t i) const
    {
        return streams_[i]->name;
    }

    /** Rounds stream @p i spent over its host bandwidth budget. */
    uint32_t governorOverBudgetRounds(uint32_t i) const
    {
        return governor_.overBudgetRounds(i);
    }

    /** Stream @p i's reuse-distance tracker (L2-block granularity). */
    const ReuseDistanceTracker &tracker(uint32_t i) const
    {
        return *streams_[i]->tracker;
    }

    /** Per-round rows harvested so far for stream @p i. */
    const std::vector<StreamRoundRow> &rows(uint32_t i) const
    {
        return rows_[i];
    }

    /** Column names of writeStreamCsv(). */
    static std::vector<std::string> csvColumns();

    /**
     * Write stream @p i's per-round rows to @p path. The bytes depend
     * only on the streams' access sequences, so they are identical for
     * any --jobs value and across a SIGKILL resume.
     * @throws mltc::Exception (Io) on write failure.
     */
    void writeStreamCsv(uint32_t i, const std::string &path) const;

  private:
    friend class MultiStreamRoundPeer; ///< test-only single-round access

    /** Everything one tenant stream owns. */
    struct StreamRuntime
    {
        StreamSpec spec;
        std::string name;
        /** Shared by the tenants naming it; null for the thrasher. */
        std::shared_ptr<const Workload> workload;
        std::unique_ptr<Rasterizer> raster; ///< null for the thrasher
        std::unique_ptr<TextureManager> thrasher_textures;
        TextureId thrasher_tid = 0;
        uint32_t thrasher_grid = 0;   ///< thrasher texture, blocks per edge
        uint64_t thrasher_cursor = 0; ///< next block index to touch
        std::unique_ptr<CacheSim> sim;
        std::unique_ptr<ReuseDistanceTracker> tracker;
        /** Set by a leg that threw this round; quarantined serially. */
        std::optional<Error> leg_error;
        bool dead = false;
        Error error;
        uint32_t quarantined_at = 0;

        TextureManager &textures() const
        {
            return workload ? *workload->textures : *thrasher_textures;
        }
    };

    void buildStreams();
    void buildThrasher(StreamRuntime &st) const;
    /** @p pipes holds each stream's producer -> sim pipe, by index. */
    void runRound(uint32_t round, AuditLevel audit, ThreadPool *pool,
                  std::span<const std::unique_ptr<SpanPipe>> pipes);
    void runLegs(uint32_t round, ThreadPool *pool,
                 std::span<const std::unique_ptr<SpanPipe>> pipes);
    void renderStream(StreamRuntime &st, SpanPipe &pipe, uint32_t round,
                      uint32_t bias);
    uint64_t feedThrasher(StreamRuntime &st, TexelAccessSink &sink);
    void harvestRow(uint32_t index, uint32_t round);
    void quarantineStream(uint32_t index, uint32_t round, Error error);
    void repartition(uint32_t round);
    void publishRound(uint32_t round);
    void evaluateSlo(uint32_t round);
    void publishTelemetry(const char *status, uint32_t next_round,
                          int checkpoint_write_failures) const;
    void saveCheckpoint(const std::string &path, uint32_t next_round) const;
    uint32_t loadCheckpoint(const std::string &path);

    MultiStreamConfig cfg_;
    std::vector<std::unique_ptr<StreamRuntime>> streams_;
    std::unique_ptr<L2TextureCache> l2_;
    BandwidthGovernor governor_;
    std::vector<std::vector<StreamRoundRow>> rows_;
    Observability *obs_ = nullptr;
    std::unique_ptr<SloTracker> slo_;
    /** Latest noisy-neighbor verdict per stream (repartition cadence);
     *  used to attribute SLO violations to thrash vs overload. */
    std::vector<uint8_t> last_noisy_;
    /** Builds the workloads and runs every round (null at one job). */
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace mltc

#endif // MLTC_SIM_MULTI_STREAM_RUNNER_HPP
