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
 * Determinism model — record in parallel, replay in order:
 *
 *  - a round is one frame per stream. Rasterization is side-effect
 *    free per stream, so rounds record each stream's texel access
 *    stream concurrently on a SweepExecutor (each leg writes only its
 *    own TexelRef buffer and bind index);
 *  - the shared L2 is mutable state, so the recorded spans are
 *    replayed into it strictly serially in stream order, one
 *    accessBatch() per between-bind slice. The replayed byte stream —
 *    and therefore every counter, CSV and checkpoint — is invariant to
 *    --jobs.
 *
 * Robustness mirrors MultiConfigRunner: a stream that throws is
 * quarantined (its shared-L2 blocks are released to the survivors and
 * it stops participating), rounds checkpoint to a crash-safe snapshot,
 * and overload is shed gracefully — a stream exceeding its host
 * bandwidth budget gets an LOD bias applied during replay (the PR-1
 * MIP-fallback idea turned into admission control) instead of stalling
 * the other tenants.
 */
#ifndef MLTC_SIM_MULTI_STREAM_RUNNER_HPP
#define MLTC_SIM_MULTI_STREAM_RUNNER_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/cache_sim.hpp"
#include "host/bandwidth.hpp"
#include "obs/reuse_profiler.hpp"
#include "raster/sampler.hpp"
#include "sim/multi_config_runner.hpp"
#include "sim/resilience.hpp"
#include "workload/workload.hpp"

namespace mltc {

class Observability;
class SloTracker;

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
    /** Recording threads (<= 1 records serially; replay is always serial). */
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

/**
 * Bind index entry of a recorded stream: the refs from @c offset up to
 * the next entry's offset (or the end) were emitted under texture
 * @c tid. The LOD bias the bandwidth governor assigns is applied
 * during replay, not recording.
 */
struct StreamBind
{
    size_t offset = 0;
    TextureId tid = 0;
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

/** Per-stream record in the run manifest. */
struct StreamManifestEntry
{
    std::string name; ///< "<index>:<workload>/<filter>"
    bool quarantined = false;
    Error error;           ///< meaningful when quarantined
    uint32_t at_round = 0; ///< round the quarantine hit
};

/** Outcome summary for a whole multi-stream run. */
struct MultiStreamManifest
{
    RunOutcome outcome = RunOutcome::Completed;
    uint32_t rounds_completed = 0;
    uint32_t next_round = 0;
    std::string checkpoint; ///< path written, empty if none
    int checkpoint_write_failures = 0; ///< commits skipped on I/O failure
    std::vector<StreamManifestEntry> streams;

    size_t quarantinedCount() const;
};

/**
 * The runner. Construct, optionally attach Observability, call run().
 */
class MultiStreamRunner
{
  public:
    /**
     * Build every stream (workloads, private L1 sims, shared L2).
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
     * Run (or resume) the configured rounds under the given
     * supervision policy. Returns the manifest; per-stream faults are
     * quarantined into it, never thrown.
     * @throws mltc::Exception on checkpoint I/O failures and on
     *         VersionMismatch / Corrupt resume snapshots.
     */
    MultiStreamManifest run(const ResilienceConfig &res);

    uint32_t streamCount() const
    {
        return static_cast<uint32_t>(streams_.size());
    }

    /** The shared L2. */
    const L2TextureCache &l2() const { return *l2_; }

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
     * only on the replayed access streams, so they are identical for
     * any --jobs value and across a SIGKILL resume.
     * @throws mltc::Exception (Io) on write failure.
     */
    void writeStreamCsv(uint32_t i, const std::string &path) const;

  private:
    /** Everything one tenant stream owns. */
    struct StreamRuntime
    {
        StreamSpec spec;
        std::string name;
        std::unique_ptr<Workload> workload; ///< null for the thrasher
        std::unique_ptr<TextureManager> thrasher_textures;
        TextureId thrasher_tid = 0;
        uint32_t thrasher_grid = 0;   ///< thrasher texture, blocks per edge
        uint64_t thrasher_cursor = 0; ///< next block index to touch
        std::unique_ptr<CacheSim> sim;
        std::unique_ptr<ReuseDistanceTracker> tracker;
        std::vector<TexelRef> refs;     ///< this round's recorded stream
        std::vector<StreamBind> binds;  ///< bind index into refs
        bool dead = false;
        Error error;
        uint32_t quarantined_at = 0;

        TextureManager &textures() const
        {
            return workload ? *workload->textures : *thrasher_textures;
        }

        void
        clearRecording()
        {
            refs.clear();
            binds.clear();
        }
    };

    void buildStream(uint32_t index, const StreamSpec &spec);
    void recordRound(uint32_t round);
    void recordThrasher(StreamRuntime &st);
    void replayStream(uint32_t index);
    void harvestRow(uint32_t index, uint32_t round);
    void quarantineStream(uint32_t index, uint32_t round, Error error);
    void repartition(uint32_t round);
    void publishRound(uint32_t round);
    void evaluateSlo(uint32_t round);
    void publishTelemetry(const char *status, uint32_t next_round,
                          int checkpoint_write_failures);
    void saveCheckpoint(const std::string &path, uint32_t next_round) const;
    uint32_t loadCheckpoint(const std::string &path);
    MultiStreamManifest buildManifest(RunOutcome outcome,
                                      uint32_t rounds_completed,
                                      uint32_t next_round) const;

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
};

} // namespace mltc

#endif // MLTC_SIM_MULTI_STREAM_RUNNER_HPP
