/**
 * @file
 * Single-pass reuse-distance profiler: miss-ratio curves, working-set
 * spectra and spatial miss heatmaps from one trace traversal.
 *
 * The paper's headline curves (Fig. 9/10, Tab. 5-6) re-simulate the
 * whole trace once per cache size. Mattson's stack algorithm gets the
 * entire LRU miss-ratio-vs-capacity curve from a *single* pass instead:
 * an access to a unit last referenced with `d` distinct units touched
 * in between (its reuse distance) hits in every fully-associative LRU
 * cache of capacity > d and misses in every smaller one, so a histogram
 * of reuse distances integrates into the full curve.
 *
 * The engine here is Bennett & Kruskal's counting stack ("LRU stack
 * processing", IBM J. R&D 1975), kept in flat arrays:
 *
 *  - an open-addressing map from unit key to the logical timestamp of
 *    its last reference and its slot on a compacted time axis,
 *  - a bitmap of live slots plus a Fenwick tree of live counts per
 *    64-slot word: the reuse distance is the number of live slots above
 *    the unit's own, one popcount plus an O(log(N/64)) walk. When the
 *    axis fills, live slots are renumbered to their rank (amortized
 *    O(1) per access),
 *  - optional SHARDS-style spatial hash sampling (--mrc-sample-rate):
 *    only keys whose hash falls under the rate threshold are tracked,
 *    and distances/counts are rescaled by 1/rate, bounding memory on
 *    long runs at a small accuracy cost.
 *
 * Two independent streams are profiled: the L1 line stream (the same
 * post-coalescing stream the real L1 sees) and the L2 sector stream
 * (L1 misses only). On top of the distance machinery the profiler
 * keeps per-interval working-set spectra (distinct units per frame
 * window — the measured generalization of model/working_set_model) and
 * spatial heatmaps: screen-space miss density and texture-space
 * per-block access/miss grids, exported as PGM images + JSON.
 *
 * Profiler state is simulator state: CacheSim serializes an attached
 * profiler into checkpoints so a resumed run emits bit-identical
 * curves and heatmaps.
 */
#ifndef MLTC_OBS_REUSE_PROFILER_HPP
#define MLTC_OBS_REUSE_PROFILER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/serializer.hpp"

namespace mltc {

/** One point of a miss-ratio curve. */
struct MrcPoint
{
    uint64_t capacity_units = 0; ///< fully-associative LRU capacity
    double miss_ratio = 0.0;     ///< estimated misses / accesses
};

/** One working-set spectrum row (a closed frame interval). */
struct WorkingSetRow
{
    uint32_t frame_begin = 0;    ///< first frame of the interval
    uint32_t frame_end = 0;      ///< one past the last frame
    uint64_t accesses = 0;       ///< stream accesses in the interval
    uint64_t distinct_units = 0; ///< estimated units touched (working set)
    uint64_t cold_units = 0;     ///< estimated never-before-seen units
};

/**
 * Reuse-distance tracker for one access stream. Exact when the sample
 * rate is 1.0; a SHARDS-style estimator below that.
 */
class ReuseDistanceTracker
{
  public:
    /** @param sample_rate spatial sampling rate in (0, 1]. */
    explicit ReuseDistanceTracker(double sample_rate = 1.0);

    /** Observe one access to @p key. */
    void record(uint64_t key);

    /**
     * Observe @p n distance-zero accesses (the coalescing filter's and
     * quad dedup's implicit repeats): guaranteed hits at any capacity,
     * counted exactly so miss ratios share CacheSim's denominator.
     */
    void
    addRepeats(uint64_t n)
    {
        repeats_ += n;
        interval_accesses_ += n;
    }

    /** record() calls observed (pre-sampling, excluding repeats). */
    uint64_t recordedRaw() const { return recorded_; }

    /**
     * Close the current working-set interval as frames
     * [frame_begin, frame_end) and start the next one.
     */
    WorkingSetRow closeInterval(uint32_t frame_begin, uint32_t frame_end);

    /**
     * The current interval's row without closing it — exports use this
     * so a run shorter than the interval still reports its spectrum.
     */
    WorkingSetRow peekInterval(uint32_t frame_begin,
                               uint32_t frame_end) const;

    /** Total accesses observed (estimated; exact at rate 1). */
    uint64_t totalAccesses() const;

    /** Distinct units ever seen (estimated; exact at rate 1). */
    uint64_t distinctUnits() const;

    /** Cold (first-touch) accesses (estimated; exact at rate 1). */
    uint64_t coldAccesses() const;

    /**
     * Estimated miss ratio of a fully-associative LRU cache holding
     * @p capacity_units units, fed this stream. capacity 0 returns 1.
     * O(1) after the first call following a record(): the histogram's
     * suffix sums are cached, so concurrent calls on one tracker race.
     */
    double missRatio(uint64_t capacity_units) const;

    /**
     * The full curve at power-of-two capacities 1, 2, 4, ... up to the
     * first capacity that contains the whole distinct-unit set.
     */
    std::vector<MrcPoint> curve() const;

    double sampleRate() const { return rate_; }

    /** Whether @p key falls in the spatial sample (always at rate 1). */
    bool sampled(uint64_t key) const;

    /** Live tracked units (sampled), i.e. current stack depth. */
    uint64_t trackedUnits() const { return live_; }

    void save(SnapshotWriter &w) const;

    /**
     * Restore state captured by save().
     * @throws mltc::Exception (VersionMismatch) on sample-rate skew,
     *         (Corrupt) on inconsistent content.
     */
    void load(SnapshotReader &r);

  private:
    /** A tracked key; slot == kFree marks an unused table entry. */
    struct Entry
    {
        uint64_t key;
        uint64_t time; ///< logical timestamp of the last reference
        uint32_t slot; ///< position on the time axis
    };
    static constexpr uint32_t kFree = 0xffffffffu;

    Entry &probe(uint64_t key, uint64_t hash);
    void growTable();
    uint32_t pushSlot();
    void dropSlot(uint32_t slot);
    void compactAxis(uint64_t words);

    double rate_;
    uint64_t threshold_; ///< hash acceptance bound derived from rate_

    std::vector<Entry> table_;   ///< power-of-two size, linear probing
    uint64_t live_ = 0;          ///< tracked keys = live slots
    std::vector<uint64_t> bits_; ///< live-slot bitmap of the time axis
    std::vector<uint32_t> fenwick_; ///< live slots per word, 1-based
    uint32_t axis_end_ = 0;      ///< next unused slot
    uint64_t clock_ = 0;         ///< timestamps issued

    std::vector<uint64_t> hist_; ///< hist_[d] = sampled accesses at distance d
    mutable std::vector<uint64_t> suffix_; ///< suffix_[c] = sum of hist_[c..]
    mutable bool suffix_stale_ = true;
    uint64_t overflow_ = 0;      ///< distances >= kMaxTrackedDistance
    uint64_t cold_ = 0;          ///< sampled first-touch accesses
    uint64_t sampled_total_ = 0; ///< sampled accesses (incl. cold)
    uint64_t repeats_ = 0;       ///< exact distance-zero accesses
    uint64_t recorded_ = 0;      ///< record() calls (pre-sampling)

    // Current working-set interval (reset by closeInterval()).
    uint64_t interval_accesses_ = 0; ///< raw accesses (incl. repeats)
    uint64_t interval_distinct_ = 0; ///< sampled units first touched here
    uint64_t interval_cold_ = 0;     ///< sampled never-seen units
    uint64_t interval_start_ = 0;    ///< clock_ at interval open

    static constexpr uint64_t kMaxTrackedDistance = 1ull << 22;
};

/** Parsed profiler knobs (see mrcFromCli). */
struct ReuseProfilerConfig
{
    bool enabled = false;
    double sample_rate = 1.0;     ///< --mrc-sample-rate
    uint32_t interval_frames = 8; ///< --mrc-interval (working-set window)
    uint32_t screen_width = 0;    ///< 0 disables the screen heatmap
    uint32_t screen_height = 0;
    uint32_t tex_granule = 16;  ///< texture heatmap cell edge (base texels)
    uint64_t l1_unit_bytes = 64;  ///< capacity axis scale, L1 stream
    uint64_t l2_unit_bytes = 64;  ///< capacity axis scale, L2 stream
    std::string mrc_out;          ///< --mrc-out (CSV/JSON base path)
    std::string heatmap_out;      ///< --heatmap-out (PGM/JSON base path)
};

/**
 * Read the shared profiler flags: --mrc, --mrc-out=BASE,
 * --heatmap-out=BASE, --mrc-sample-rate=R, --mrc-interval=N. Either
 * output flag implies --mrc.
 * @throws mltc::Exception (BadArgument) on malformed values.
 */
ReuseProfilerConfig mrcFromCli(const CommandLine &cli);

/** One texture-space heatmap grid (fixed-granule cells, mips folded). */
struct HeatmapGrid
{
    uint32_t width = 0;  ///< cells per row
    uint32_t height = 0; ///< rows
    std::vector<uint64_t> accesses; ///< width*height, row-major
    std::vector<uint64_t> misses;   ///< width*height, row-major
};

/**
 * The profiler: two reuse-distance trackers (L1 lines, L2 sectors),
 * working-set spectra and spatial heatmaps. Attach to a CacheSim with
 * setReuseProfiler(); it is fed from the access path and serialized in
 * the simulator's snapshot.
 */
class ReuseProfiler
{
  public:
    explicit ReuseProfiler(const ReuseProfilerConfig &config);

    const ReuseProfilerConfig &config() const { return cfg_; }

    // ---- stream hooks (called by CacheSim) ----

    /** The rasterizer moved to screen pixel (px, py). */
    void
    beginPixel(uint32_t px, uint32_t py)
    {
        cur_px_ = px;
        cur_py_ = py;
    }

    /** Texture @p tid (base dimensions @p w x @p h) is now bound. */
    void bindTexture(uint32_t tid, uint32_t w, uint32_t h);

    /** One post-coalescing L1 line reference. */
    void onL1Access(uint64_t line_key, bool l1_hit, uint32_t x, uint32_t y,
                    uint32_t mip);

    /** One L2 sector reference (an L1 miss reaching the L2). */
    void onL2Sector(uint64_t sector_key, bool full_hit, uint32_t x,
                    uint32_t y, uint32_t mip);

    /**
     * Frame boundary. @p frame_accesses is the frame's raw access count
     * (CacheFrameStats::accesses): the gap between it and the L1
     * references recorded this frame is exactly the coalescing filter's
     * and quad dedup's implicit repeats — distance-zero guaranteed hits,
     * booked here so the hot path carries no per-repeat profiler branch
     * and miss-ratio denominators still match the simulator's.
     */
    void endFrame(uint64_t frame_accesses);

    // ---- results ----

    const ReuseDistanceTracker &l1() const { return l1_; }
    const ReuseDistanceTracker &l2() const { return l2_; }

    /** True once any L2 sector was observed (two-level configs). */
    bool hasL2Stream() const { return l2_seen_; }

    /** Closed working-set rows for the given stream ("l1" / "l2"). */
    const std::vector<WorkingSetRow> &
    workingSet(bool l2_stream) const
    {
        return l2_stream ? ws_l2_ : ws_l1_;
    }

    /**
     * workingSet() plus the open partial interval when any access
     * landed in it — the rows the exports print.
     */
    std::vector<WorkingSetRow> spectrumRows(bool l2_stream) const;

    /** Texture heatmap grids by texture id (granule-cell resolution). */
    const std::map<uint32_t, HeatmapGrid> &textureGrids() const
    {
        return tex_grids_;
    }

    /** Screen-space L1 miss density (empty without screen dims). */
    const HeatmapGrid &screenGrid() const { return screen_; }

    /** Frames completed. */
    uint32_t frames() const { return frames_; }

    // ---- export ----

    /**
     * Write `<base>.csv` (MRC points), `<base>.ws.csv` (working-set
     * spectra) and `<base>.json` (both, structured).
     * @throws mltc::Exception (Io) on any file failure.
     */
    void writeMrc(const std::string &base) const;

    /**
     * Write `<base>.json` (per-block totals + hottest blocks) and
     * log-scaled PGM images: `<base>.screen.pgm` (when screen dims are
     * set) and `<base>.tex<id>.pgm` per referenced texture.
     * @throws mltc::Exception (Io) on any file failure.
     */
    void writeHeatmaps(const std::string &base) const;

    /** ASCII rendering of both MRC curves (report, quick looks). */
    std::string asciiMrc(uint32_t plot_width = 48) const;

    // ---- snapshot ----

    void save(SnapshotWriter &w) const;

    /**
     * Restore state captured by save().
     * @throws mltc::Exception (VersionMismatch) on configuration skew,
     *         (Corrupt) on damaged content.
     */
    void load(SnapshotReader &r);

  private:
    HeatmapGrid &grid(uint32_t tid);
    void bumpTexCell(uint32_t x, uint32_t y, uint32_t mip, bool miss);

    ReuseProfilerConfig cfg_;
    ReuseDistanceTracker l1_;
    ReuseDistanceTracker l2_;
    bool l2_seen_ = false;

    std::vector<WorkingSetRow> ws_l1_;
    std::vector<WorkingSetRow> ws_l2_;
    uint32_t frames_ = 0;
    uint32_t interval_begin_ = 0; ///< first frame of the open interval
    uint64_t accesses_seen_ = 0;  ///< raw accesses booked via endFrame()
    uint64_t l1_record_mark_ = 0; ///< l1_.recordedRaw() at last endFrame

    // Spatial state.
    uint32_t cur_px_ = 0;
    uint32_t cur_py_ = 0;
    uint32_t bound_tid_ = 0;
    uint32_t bound_w_ = 0; ///< base-level texels
    uint32_t bound_h_ = 0;
    HeatmapGrid *bound_grid_ = nullptr; ///< cache of grid(bound_tid_)
    std::map<uint32_t, HeatmapGrid> tex_grids_;
    std::map<uint32_t, std::pair<uint32_t, uint32_t>> tex_dims_;
    HeatmapGrid screen_; ///< accesses = L1 misses, misses = L2 misses
};

} // namespace mltc

#endif // MLTC_OBS_REUSE_PROFILER_HPP
