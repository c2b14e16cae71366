/**
 * @file
 * Continuous profiling plane: sampled stage flamegraphs and hardware
 * counter attribution (docs/profiling.md).
 *
 * Three legs, one subsystem:
 *
 *  1. A sampling stage profiler. Every worker thread maintains a
 *     lock-free annotated stage stack (pushed by ScopedProfileStage
 *     from the same hook sites the Chrome tracer instruments:
 *     rasterizer passes, the sampler, CacheSim::accessBatch, sweep legs
 *     and tenant streams). A per-process sampler thread wakes at
 *     --profile-hz (default 997, prime so it cannot phase-lock with
 *     frame loops) and snapshots every claimed stack into a per-thread
 *     ring buffer; rings fold into an aggregate stack->count map when
 *     they fill and on flush. Flush emits collapsed-stack folded
 *     format (`PREFIX.folded`, flamegraph.pl / speedscope compatible)
 *     plus a JSON summary (`PREFIX.json`) with per-stage self/total
 *     sample counts, per sweep leg and per tenant stream, headed by
 *     the build provenance (util/build_info.hpp).
 *
 *  2. Hardware counter attribution via perf_event_open: one grouped
 *     event set per thread (cycles leader, instructions,
 *     LLC-load-misses, branch-misses), read at the boundaries of the
 *     hot stages (rasterizer passes) and whole sweep legs. When the
 *     syscall is denied (CI containers, perf_event_paranoid) the
 *     profiler degrades to a `profile.counters_unavailable` gauge —
 *     never a hard failure.
 *
 *  3. Differential profiling: loadFolded() + diffFoldedProfiles()
 *     align two .folded files by stage and compute symmetric relative
 *     self-share deltas — `report profile A.folded B.folded
 *     [--threshold R]` exits 3 over threshold, the same contract as
 *     `report compare`.
 *
 * Concurrency model (mirrors trace_event.hpp's global-slot idiom): the
 * profiler installs into an atomic process-global slot; when absent,
 * every hook is one atomic load + branch. Stack push/pop are plain
 * atomic stores (no RMW, no fence beyond release) on a cache-line-
 * aligned per-thread slot; the sampler reads depth with acquire and
 * the frames relaxed. A torn read can momentarily misattribute one
 * sample to a neighbouring stage — harmless for a statistical profile
 * and the price of a zero-lock hot path.
 *
 * Determinism contract: the profiler observes, never steers. Attaching
 * it cannot change any simulation output byte (validate_profile.sh
 * proves CSV byte-identity against a profiler-off run). Its own
 * outputs are deterministic in *shape*: folded lines sorted
 * lexicographically, JSON legs/streams in annotation registration
 * order — only the sample counts vary run to run.
 */
#ifndef MLTC_OBS_PROFILER_HPP
#define MLTC_OBS_PROFILER_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace mltc {

class StageProfiler;

/** Profiler knobs (a slice of ObsConfig). */
struct ProfilerConfig
{
    uint32_t hz = 997;          ///< sampling rate (1..100000)
    std::string out_prefix;     ///< PREFIX.folded + PREFIX.json ("" = live-only)
    bool counters = true;       ///< attempt perf_event_open at all
    bool force_counters_unavailable = false; ///< test hook: degraded path
    MetricsRegistry *registry = nullptr;     ///< live aggregate export
};

namespace detail {

constexpr uint32_t kProfileMaxDepth = 16;
constexpr uint32_t kProfileMaxThreads = 64;

/**
 * One thread's stage stack, readable by the sampler mid-mutation.
 * Push: frames[d] store (relaxed) then depth d+1 store (release).
 * Pop: depth d-1 store (release). Sampler: depth load (acquire),
 * frames loads (relaxed). Everything is atomic, so the race is benign
 * by construction (and clean under TSan).
 */
struct alignas(64) ProfileSlot
{
    std::atomic<uint32_t> depth{0};
    std::atomic<const char *> frames[kProfileMaxDepth] = {};
};

/** The process-global profiler slot; mirrors detail::g_tracer. */
inline std::atomic<StageProfiler *> g_profiler{nullptr};

} // namespace detail

/** Install @p profiler as the process-global profiler (null removes). */
void installStageProfiler(StageProfiler *profiler);

/**
 * The process-global profiler, or null when profiling is disabled.
 * Inline for the same reason globalTracer() is: the disabled-mode cost
 * of every hook must stay one atomic load + branch (the <5% microbench
 * gate measures exactly this).
 */
inline StageProfiler *
stageProfiler()
{
    return detail::g_profiler.load(std::memory_order_acquire);
}

/** Hardware counter totals attributed to one stage. */
struct HwStageCounters
{
    uint64_t enters = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t llc_misses = 0;
    uint64_t branch_misses = 0;
};

/** Self/total sample counts of one stage (from folded stacks). */
struct ProfileStageCount
{
    std::string name;
    uint64_t self = 0;  ///< samples with this stage on top
    uint64_t total = 0; ///< samples with this stage anywhere on stack
};

/** A parsed .folded profile plus its per-stage aggregation. */
struct FoldedProfile
{
    std::map<std::string, uint64_t> stacks; ///< folded key -> samples
    std::vector<ProfileStageCount> stages;  ///< sorted by name
    uint64_t total_samples = 0;
};

/** One stage's appearance in a differential profile. */
struct ProfileDiffRow
{
    std::string name;
    double share_a = 0.0; ///< self-sample share in A (0..1)
    double share_b = 0.0; ///< self-sample share in B
    double rel_delta = 0.0; ///< |a-b| / max(a,b); 1.0 when one side absent
};

/** diffFoldedProfiles() result: per-stage rows plus the worst delta. */
struct ProfileDiff
{
    std::vector<ProfileDiffRow> rows; ///< largest delta first
    double max_rel = 0.0;
};

// Folded-format helpers (unit-tested in tests/test_profiler.cpp).

/** Escape one frame name for a folded stack key (';'/'\' escaped). */
std::string foldedEscape(const std::string &frame);

/** Join @p frames into one folded stack key, escaping each frame. */
std::string foldedKey(const std::vector<std::string> &frames);

/** Split a folded stack key back into frame names (unescaping). */
std::vector<std::string> foldedSplit(const std::string &key);

/**
 * Render a stack->count map as collapsed-stack text: one
 * "frame;frame;... N" line per stack, lexicographic key order,
 * zero-count stacks omitted.
 */
std::string renderFolded(const std::map<std::string, uint64_t> &stacks);

/**
 * Load a .folded file and aggregate per-stage self/total counts.
 * @throws mltc::Exception (Io on open failure, Corrupt on a line that
 *         does not parse as "stack count").
 */
FoldedProfile loadFolded(const std::string &path);

/**
 * Align two profiles by stage name and compute symmetric relative
 * self-share deltas. @p min_share suppresses noise: stages whose
 * self-share is below it in both profiles are reported with delta 0.
 */
ProfileDiff diffFoldedProfiles(const FoldedProfile &a,
                               const FoldedProfile &b,
                               double min_share = 0.0);

/** The continuous profiler; see file comment. */
class StageProfiler
{
  public:
    /**
     * Starts the sampler thread immediately.
     * @throws mltc::Exception (BadArgument) on an hz outside [1,1e5].
     */
    explicit StageProfiler(const ProfilerConfig &config);

    /** Stops the sampler and releases the perf fds (no file I/O). */
    ~StageProfiler();

    StageProfiler(const StageProfiler &) = delete;
    StageProfiler &operator=(const StageProfiler &) = delete;

    const ProfilerConfig &config() const { return cfg_; }

    /**
     * Push @p name on the calling thread's stage stack. Returns the
     * thread's slot for the matching leave(), or null when the thread
     * pool outgrew kProfileMaxThreads (the sample is counted dropped).
     * Null @p name is a no-op. Called by ScopedProfileStage only.
     */
    detail::ProfileSlot *enter(const char *name);

    /** Pop the innermost stage pushed via enter(). */
    static void
    leave(detail::ProfileSlot *slot)
    {
        const uint32_t d = slot->depth.load(std::memory_order_relaxed);
        if (d > 0)
            slot->depth.store(d - 1, std::memory_order_release);
    }

    /**
     * Intern an annotation name (sweep leg, tenant stream), returning
     * a pointer stable for the profiler's lifetime. Registration order
     * is remembered: the JSON summary lists legs/streams in first-
     * intern order, which SweepExecutor registration order induces.
     */
    const char *intern(const std::string &name);

    /** True once any thread failed to open its perf event group. */
    bool countersUnavailable() const
    {
        return counters_unavailable_.load(std::memory_order_relaxed);
    }

    /** Whether counter scopes should even attempt a read. */
    bool countersWanted() const { return cfg_.counters; }

    /**
     * Read the calling thread's counter group (opening it lazily).
     * Returns false — after flipping the unavailable gauge — when the
     * group cannot be opened or read. @p out receives cycles,
     * instructions, LLC misses, branch misses.
     */
    bool readCounters(uint64_t out[4]);

    /** Attribute a counter delta (exit minus enter) to @p stage. */
    void accumulateCounters(const char *stage, const uint64_t delta[4]);

    /** Samples folded so far (rings included). */
    uint64_t sampleCount() const;

    /** Samples dropped to slot exhaustion. */
    uint64_t droppedSamples() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /**
     * The current aggregate as a JSON document (the /profilez body):
     * same schema as PREFIX.json, rendered live. Never throws.
     */
    std::string liveJson();

    /**
     * Fold outstanding rings and write PREFIX.folded + PREFIX.json.
     * No-op without an out_prefix.
     * @throws mltc::Exception (Io) when a file cannot be written.
     */
    void writeOutputs();

    /**
     * writeOutputs() for signal/flight paths: best-effort, never
     * throws, returns false on failure. Safe to call repeatedly — the
     * writes are atomic replacements, so a later close() supersedes.
     */
    bool flushOutputs() noexcept;

    /** Stop the sampler thread (idempotent; destructor also stops). */
    void stopSampler();

  private:
    struct Sample
    {
        uint32_t depth = 0;
        const char *frames[detail::kProfileMaxDepth];
    };

    /** Per-thread perf_event group (fds owned by the profiler). */
    struct HwGroup
    {
        int fds[4] = {-1, -1, -1, -1};
        bool open = false;
        bool failed = false;
    };

    void samplerLoop();
    void tickLocked();
    void foldRingLocked(uint32_t slot);
    void foldAllLocked();
    void publishRegistryLocked();
    std::string renderJsonLocked();
    uint32_t slotForThisThread();
    bool openGroup(HwGroup &g);
    void markCountersUnavailable();

    ProfilerConfig cfg_;
    const uint64_t generation_; ///< distinguishes profiler instances
    detail::ProfileSlot slots_[detail::kProfileMaxThreads];
    HwGroup groups_[detail::kProfileMaxThreads];
    std::atomic<uint32_t> next_slot_{0};
    std::atomic<uint64_t> dropped_{0};
    std::atomic<bool> counters_unavailable_{false};

    mutable std::mutex mutex_; ///< rings, folded_, interns, counters
    std::vector<Sample> rings_[detail::kProfileMaxThreads];
    std::map<std::string, uint64_t> folded_; ///< stack key -> samples
    uint64_t folded_samples_ = 0;
    std::deque<std::string> intern_storage_;
    std::map<std::string, const char *> interned_;
    std::vector<const char *> intern_order_;
    std::map<std::string, HwStageCounters> counter_stats_;
    std::chrono::steady_clock::time_point t0_;

    // Live registry handles (null when no registry / disabled).
    CounterHandle samples_metric_;
    CounterHandle dropped_metric_;
    GaugeHandle unavailable_metric_;

    std::atomic<bool> stop_{false};
    std::mutex wake_mutex_;
    std::condition_variable wake_cv_;
    std::thread sampler_;
};

/**
 * RAII stage scope against the global profiler; a no-op when none is
 * installed (one inline atomic load + branch) or when @p name is null
 * (an annotation interned while no profiler existed).
 *
 * With @p with_counters, the scope also brackets a grouped hardware
 * counter read and attributes the delta to @p name — reserved for
 * coarse stages (rasterizer passes, whole sweep legs); never put it on
 * a per-texel path.
 */
class ScopedProfileStage
{
  public:
    explicit ScopedProfileStage(const char *name)
    {
        StageProfiler *p = stageProfiler();
        if (p != nullptr && name != nullptr) [[unlikely]]
            slot_ = p->enter(name);
    }

    ScopedProfileStage(const char *name, bool with_counters) : name_(name)
    {
        StageProfiler *p = stageProfiler();
        if (p != nullptr && name != nullptr) [[unlikely]] {
            slot_ = p->enter(name);
            if (with_counters && p->countersWanted())
                counting_ = p->readCounters(start_);
            prof_ = p;
        }
    }

    ~ScopedProfileStage()
    {
        if (counting_) {
            uint64_t end[4];
            if (prof_->readCounters(end)) {
                uint64_t delta[4];
                for (int i = 0; i < 4; ++i)
                    delta[i] = end[i] >= start_[i] ? end[i] - start_[i] : 0;
                prof_->accumulateCounters(name_, delta);
            }
        }
        if (slot_ != nullptr) [[unlikely]]
            StageProfiler::leave(slot_);
    }

    ScopedProfileStage(const ScopedProfileStage &) = delete;
    ScopedProfileStage &operator=(const ScopedProfileStage &) = delete;

  private:
    detail::ProfileSlot *slot_ = nullptr;
    StageProfiler *prof_ = nullptr;
    const char *name_ = nullptr;
    bool counting_ = false;
    uint64_t start_[4] = {};
};

/**
 * Intern an annotation frame ("leg:NAME", "stream:NAME") against the
 * global profiler; null when profiling is off (ScopedProfileStage
 * treats a null name as a no-op, so call sites stay unconditional).
 */
const char *profileInternAnnotation(const std::string &name);

} // namespace mltc

#endif // MLTC_OBS_PROFILER_HPP
