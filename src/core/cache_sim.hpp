/**
 * @file
 * Multi-level texture cache controller: the Figure 7 / Appendix control
 * flow, wired as a TexelAccessSink so it can be driven directly by the
 * rasterizer (or a trace).
 *
 * Configured with the L2 disabled, it models the plain *pull*
 * architecture: every L1 miss downloads one L1 tile from host memory
 * over AGP. With the L2 enabled, L1 misses are serviced by the L2 per
 * the paper's algorithm (full hit from local DRAM; partial hit / full
 * miss download exactly one L1-tile-sized sector from host, filling L1
 * in parallel). An optional TLB models page-table translation caching.
 */
#ifndef MLTC_CORE_CACHE_SIM_HPP
#define MLTC_CORE_CACHE_SIM_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/l1_cache.hpp"
#include "core/l2_cache.hpp"
#include "core/texture_tlb.hpp"
#include "host/host_backend.hpp"
#include "obs/miss_classify.hpp"
#include "raster/access_sink.hpp"
#include "texture/texture_manager.hpp"

namespace mltc {

class ReuseProfiler;
class ReuseDistanceTracker;

/** Full simulator configuration. */
struct CacheSimConfig
{
    L1Config l1;
    bool l2_enabled = true;
    L2Config l2;
    uint32_t tlb_entries = 0; ///< 0 disables TLB modelling
    /**
     * Run 3C (compulsory/capacity/conflict) miss classification beside
     * the real caches (--miss-classes). The shadow models are simulator
     * state: they are serialized in checkpoints and never perturb the
     * real caches, so every seed counter stays bit-identical.
     */
    bool classify_misses = false;
    /**
     * Host download path robustness model. With fault_injection off
     * (the default) downloads are the seed's infallible byte counter
     * and every counter is bit-identical to the seed simulator.
     */
    HostPathConfig host;

    /** Pull architecture (L1 only) with the given L1 size. */
    static CacheSimConfig
    pull(uint64_t l1_bytes, uint32_t l1_tile = 4)
    {
        CacheSimConfig c;
        c.l1.size_bytes = l1_bytes;
        c.l1.l1_tile = l1_tile;
        c.l2_enabled = false;
        return c;
    }

    /** L2 caching architecture with the paper's default tiles. */
    static CacheSimConfig
    twoLevel(uint64_t l1_bytes, uint64_t l2_bytes, uint32_t l2_tile = 16,
             uint32_t l1_tile = 4)
    {
        CacheSimConfig c;
        c.l1.size_bytes = l1_bytes;
        c.l1.l1_tile = l1_tile;
        c.l2_enabled = true;
        c.l2.size_bytes = l2_bytes;
        c.l2.l2_tile = l2_tile;
        c.l2.l1_tile = l1_tile;
        return c;
    }
};

/** Per-frame deltas of every counter the experiments need. */
struct CacheFrameStats
{
    uint64_t accesses = 0;
    uint64_t l1_misses = 0;
    uint64_t l2_full_hits = 0;
    uint64_t l2_partial_hits = 0;
    uint64_t l2_full_misses = 0;
    uint64_t host_bytes = 0;    ///< AGP / system-memory download bytes
    uint64_t l2_read_bytes = 0; ///< local L2 memory read bytes
    uint64_t tlb_probes = 0;
    uint64_t tlb_hits = 0;
    uint32_t victim_steps_max = 0; ///< worst clock search this frame

    // Host-path robustness counters (all zero with faults disabled).
    uint64_t host_retries = 0;  ///< transfer attempts beyond the first
    uint64_t host_failures = 0; ///< fetches that exhausted their retries
    /**
     * Failed fetches served from a coarser resident MIP level instead.
     * host_failures - degraded_accesses = hard failures (nothing
     * coarser was resident either).
     */
    uint64_t degraded_accesses = 0;
    uint64_t degraded_mip_bias = 0; ///< sum of (fallback mip - wanted mip)

    // 3C miss-class deltas (all zero unless classify_misses is set).
    // L1 classes partition l1_misses; L2 classes partition the sector
    // misses (l2_partial_hits + l2_full_misses) that reached the L2.
    uint64_t l1_compulsory = 0;
    uint64_t l1_capacity = 0;
    uint64_t l1_conflict = 0;
    uint64_t l2_compulsory = 0;
    uint64_t l2_capacity = 0;
    uint64_t l2_conflict = 0;

    double
    l1HitRate() const
    {
        return accesses ? 1.0 - static_cast<double>(l1_misses) /
                                    static_cast<double>(accesses)
                        : 0.0;
    }

    /** Conditional L2 full-hit rate given an L1 miss (paper fn. 5). */
    double
    l2FullHitRate() const
    {
        return l1_misses ? static_cast<double>(l2_full_hits) /
                               static_cast<double>(l1_misses)
                         : 0.0;
    }

    /** Conditional L2 partial-hit rate given an L1 miss. */
    double
    l2PartialHitRate() const
    {
        return l1_misses ? static_cast<double>(l2_partial_hits) /
                               static_cast<double>(l1_misses)
                         : 0.0;
    }

    double
    tlbHitRate() const
    {
        return tlb_probes ? static_cast<double>(tlb_hits) /
                                static_cast<double>(tlb_probes)
                          : 0.0;
    }

    /** Mean MIP-level penalty over degraded accesses. */
    double
    meanDegradedMipBias() const
    {
        return degraded_accesses
                   ? static_cast<double>(degraded_mip_bias) /
                         static_cast<double>(degraded_accesses)
                   : 0.0;
    }

    /** Accumulate another frame's counters (for whole-run averages). */
    void add(const CacheFrameStats &o);

    /** Serialize all counters for a checkpoint. */
    void save(SnapshotWriter &w) const;

    /** Restore counters captured by save(). */
    void load(SnapshotReader &r);
};

/** How much of the state invariants to check (see core/audit.hpp). */
enum class AuditLevel : uint8_t
{
    Off,   ///< no checking
    Cheap, ///< O(1)-ish sanity checks, safe at every frame boundary
    Full,  ///< exhaustive structural sweep (tests, --audit=full)
};

/**
 * The simulator. Attach as the rasterizer's sink (or behind a
 * FanoutSink for multi-configuration runs), call endFrame() at each
 * frame boundary.
 */
class CacheSim final : public TexelAccessSink
{
  public:
    /**
     * @param textures texture registry (page table sized from it)
     * @param config cache configuration
     * @param label name used in reports
     */
    CacheSim(TextureManager &textures, const CacheSimConfig &config,
             std::string label = {});

    const std::string &label() const { return label_; }
    const CacheSimConfig &config() const { return cfg_; }

    void bindTexture(TextureId tid) override;

    /**
     * The access path (docs/batched_access.md): one observability hook
     * crossing (tracer/self-timer/profiler-stage check) per span, SoA
     * address translation over the span, and a branch-free L1 probe.
     * Misses fall out to the per-texel slow path handleMiss(), and an
     * attached reuse profiler or L1 3C classifier observes each
     * post-coalescing reference in stream order, so every counter,
     * snapshot and CSV is bit-identical to servicing the span one
     * texel at a time (the reference loop the batch differential,
     * tests/test_batch_equivalence.cpp, keeps).
     */
    void accessBatch(std::span<const TexelRef> refs) override;

    /**
     * Harvest this frame's counter deltas and mark the boundary. On a
     * simulator attached to a shared L2 this first drains the queued
     * L1 misses into it (drainSharedL2()).
     */
    CacheFrameStats endFrame();

    /** Counters accumulated since construction (all frames). */
    const CacheFrameStats &totals() const { return totals_; }

    /** Frames completed. */
    uint32_t frames() const { return frames_; }

    const L1Cache &l1() const { return l1_; }

    /** The L2 cache (owned or attached shared), null in pull mode. */
    const L2TextureCache *l2() const { return l2p_; }

    /**
     * Multi-tenant serving: route this simulator's L1 misses through a
     * shared L2 it does not own, as tenant @p stream. Must be called on
     * a simulator constructed with l2_enabled = false, before any
     * texture is bound. The shared cache is NOT serialized by this
     * simulator's save() — the owner (the multi-stream runner)
     * checkpoints it exactly once.
     *
     * The access path then touches only private state: the L1 filter,
     * probe and fill, the TLB, the L2 block tracker and the L1 3C
     * classifier run inline, and each L1 miss is queued. The queue is
     * applied to the shared L2 in issue order by drainSharedL2() (and
     * so by endFrame()), which is where the L2 outcome counters, the
     * L2 3C classifier and victim_steps_max are updated. Simulators
     * sharing one L2 may therefore run their access paths concurrently
     * as long as their drains are serialized. Every counter equals
     * what servicing each miss inline would produce, because an L1
     * fill never depends on the L2 outcome once the host path is
     * infallible.
     * @throws std::logic_error when this simulator owns an L2, has
     *         bound a texture, runs host fault injection or has a reuse
     *         profiler attached (the last two need L2 results inline).
     */
    void attachSharedL2(L2TextureCache *l2, uint32_t stream);

    /**
     * Apply the L1 misses queued for the attached shared L2, in issue
     * order, and account their L2 outcomes into the current frame. The
     * queue is empty afterwards even when an access throws. A no-op
     * without queued misses.
     */
    void drainSharedL2();

    /** Tenant stream id used on the attached shared L2. */
    uint32_t l2Stream() const { return l2_stream_; }

    /**
     * Attach a reuse-distance tracker fed with the page-table index of
     * every L2 block this simulator references on an L1 miss (null
     * detaches). Not owned, not serialized here: the multi-stream
     * runner persists it beside its own state. The per-stream
     * miss-ratio curve it yields is the input to utility repartitioning.
     */
    void setL2BlockTracker(ReuseDistanceTracker *tracker)
    {
        l2_tracker_ = tracker;
    }

    const TextureTlb *tlb() const { return tlb_.get(); }

    /** The host fetch path, present only under fault injection. */
    const HostFetchPath *hostPath() const { return host_.get(); }

    /**
     * Attach a reuse-distance profiler (null detaches). Not owned; the
     * caller keeps it alive for the simulator's lifetime. While
     * attached the profiler is simulator state: it is fed from the
     * access path and serialized into snapshots, so attach it before
     * load() when resuming a profiled run.
     * @throws std::logic_error on a simulator attached to a shared L2.
     */
    void setReuseProfiler(ReuseProfiler *profiler);

    /** The attached profiler, or null. */
    ReuseProfiler *reuseProfiler() const { return profiler_; }

    /** L1 3C classifier, present only with classify_misses. */
    const MissClassifier *l1Classifier() const { return l1_class_.get(); }

    /** L2 3C classifier, present with classify_misses + an L2. */
    const MissClassifier *l2Classifier() const { return l2_class_.get(); }

    /**
     * The fault injector, present only under fault injection. Non-const
     * so benches/tests can reconfigure the scenario mid-run.
     */
    FaultInjector *faultInjector()
    {
        return faulty_ ? &faulty_->injector() : nullptr;
    }

    /**
     * Serialize the complete simulator state (caches, TLB, host path,
     * bound-texture hot state, per-frame and total counters) so a
     * resumed run continues bit-identically.
     * @throws std::logic_error while L1 misses are queued for a shared
     *         L2 (call endFrame() first).
     */
    void save(SnapshotWriter &w) const;

    /**
     * Restore state captured by save() into a simulator constructed
     * with the same configuration over the same texture set.
     * @throws mltc::Exception (VersionMismatch) on configuration skew,
     *         (Corrupt/Truncated) on damaged snapshots.
     */
    void load(SnapshotReader &r);

    /**
     * Check state invariants at the given level (see CacheAuditor).
     * @throws mltc::Exception (AuditViolation) naming the structure and
     *         index of the first violated invariant.
     */
    void audit(AuditLevel level) const;

  private:
    friend class CacheAuditor;
    friend class AuditTestPeer;
    friend class BatchReferencePeer; ///< test-only per-texel reference

    /**
     * Service an L1 miss already counted by the caller: pull download
     * or L2 lookup, fault handling, degradation, classification, L1
     * fill. batchImpl() drops each miss of its staged run out to it
     * (so does the per-texel reference loop of the batch differential).
     * Every exit leaves last_tile_ == @p tile.
     */
    void handleMiss(uint32_t x, uint32_t y, uint32_t mip, uint64_t key,
                    uint64_t tile);

    /**
     * One L2 lookup and its accounting: outcome counters, host bytes,
     * victim_steps_max and the L2 3C classifier. Shared by the owned
     * path (inline in handleMiss) and drainSharedL2().
     */
    L2Result serviceL2(uint32_t t_index, uint32_t l1_sub,
                       uint64_t sector_bytes, TextureId tid, uint32_t mip);

    /** Queue one L1 miss for drainSharedL2() (shared L2 only). */
    void queueSharedMiss(uint32_t t_index, uint32_t l1_sub, uint32_t mip);

    /** accessBatch body: the staged loop (see the .cpp). */
    void batchImpl(std::span<const TexelRef> refs);

    /**
     * Hand one post-coalescing L1 reference to the attached observers:
     * the reuse profiler and the L1 3C classifier (whose classes it
     * counts into the frame).
     */
    void observeL1(uint64_t key, bool l1_hit, uint32_t x, uint32_t y,
                   uint32_t mip);

    /**
     * Coalescing-filter key of the L1 tile containing (x, y, mip); bit
     * 57 distinguishes every real tile from the "no tile" value 0.
     */
    uint64_t
    tileKeyOf(uint32_t x, uint32_t y, uint32_t mip) const
    {
        return (static_cast<uint64_t>(mip) << 58) |
               (static_cast<uint64_t>(y >> l1_shift_) << 29) |
               static_cast<uint64_t>(x >> l1_shift_) | (1ull << 57);
    }

    /**
     * Issue one host sector download through the fallible path,
     * accounting retries and wasted (corrupt) bus traffic.
     * @return true when the sector arrived intact.
     */
    bool fetchFromHost(uint32_t t_index);

    /**
     * Retry exhaustion: serve the access from the nearest coarser MIP
     * level whose block is still resident (L2 sector-valid, or L1 in
     * the pull architecture), counting the degradation; a hard failure
     * (nothing coarser resident) only bumps host_failures.
     */
    void degradeToResidentMip(uint32_t x, uint32_t y, uint32_t mip);

    TextureManager &textures_;
    CacheSimConfig cfg_;
    std::string label_;
    L1Cache l1_;
    std::unique_ptr<L2TextureCache> l2_;
    L2TextureCache *l2p_ = nullptr; ///< hot-path L2: owned or shared
    uint32_t l2_stream_ = 0;        ///< tenant id on a shared L2

    /** An L1 miss waiting for drainSharedL2(). */
    struct SharedMiss
    {
        uint32_t t_index;
        TextureId tid;
        uint32_t sector_bytes; ///< host_sector_bytes_ at issue
        uint16_t l1_sub;
        uint16_t mip;
    };
    /**
     * The queue (shared L2 only), in fixed chunks kept for the
     * simulator's lifetime. It grows without copying or freeing, so
     * an access path that hops between threads leaves no outgrown
     * buffers stranded in their malloc arenas.
     */
    static constexpr size_t kMissChunk = 4096; ///< 64 KiB
    std::vector<std::unique_ptr<SharedMiss[]>> l2_chunks_;
    size_t l2_queued_ = 0;
    ReuseDistanceTracker *l2_tracker_ = nullptr; ///< not owned
    std::unique_ptr<TextureTlb> tlb_;
    std::unique_ptr<HostFetchPath> host_; ///< null = infallible host
    FaultyHostBackend *faulty_ = nullptr;  ///< owned by host_
    std::unique_ptr<MissClassifier> l1_class_; ///< null unless classifying
    std::unique_ptr<MissClassifier> l2_class_; ///< null unless L2 + classify
    ReuseProfiler *profiler_ = nullptr; ///< not owned; null = disabled

    // Per-bound-texture cached state (hot path).
    const TiledLayout *l1_layout_ = nullptr;
    const TiledLayout *l2_layout_ = nullptr;
    TextureId bound_ = 0;
    uint32_t tstart_ = 0;
    uint64_t host_sector_bytes_ = 0; ///< one L1 tile at original depth
    uint64_t last_tile_ = 0;         ///< coalescing filter (0 = none)
    uint32_t l1_shift_ = 2;          ///< log2(L1 tile edge)

    // Fused L1 address translation for the batched fast loop. With the
    // Morton L1 layout the packed block key of a texel reduces to one
    // interleave of its global tile coordinates plus bit surgery:
    //   code = morton(x >> l1_shift_, y >> l1_shift_)
    //   key  = tid<<32 | (level_base[mip] + (code >> sub_bits)) << 8
    //        | (code & sub_mask)
    // because the low 2*log2(l2_tile/l1_tile) interleaved bits are
    // exactly the Morton L1 sub-block number (bit-homomorphism of the
    // interleave over the tile/sub-tile split). Cached per bind;
    // bindTexture() always builds the L1 layout Morton-numbered.
    const uint32_t *l1_level_base_ = nullptr; ///< per-mip L2 block base
    uint64_t l1_tid_hi_ = 0;                  ///< bound_ << 32
    uint32_t l1_sub_bits_ = 4;  ///< 2*log2(l2_tile/l1_tile)
    uint32_t l1_sub_mask_ = 15; ///< (1 << l1_sub_bits_) - 1

    CacheFrameStats frame_; ///< counters for the current frame
    CacheFrameStats totals_;
    uint32_t frames_ = 0;
};

} // namespace mltc

#endif // MLTC_CORE_CACHE_SIM_HPP
