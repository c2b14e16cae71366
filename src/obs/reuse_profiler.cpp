#include "obs/reuse_profiler.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"
#include "util/json.hpp"

namespace mltc {

namespace {

/** SplitMix64 finalizer: the sampling and key-table hash. */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/** fopen for writing with a typed error. */
std::FILE *
openOut(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw Exception(ErrorCode::Io, "cannot open '" + path + "' for write");
    return f;
}

/** fclose checking both the stream state and the close itself. */
void
closeOut(std::FILE *f, const std::string &path)
{
    const bool bad = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || bad)
        throw Exception(ErrorCode::Io, "write to '" + path + "' failed");
}

/** "64 B" / "4.0 KB" / "2.0 MB" for capacity axis labels. */
std::string
humanBytes(uint64_t bytes)
{
    char buf[32];
    if (bytes < 1024)
        std::snprintf(buf, sizeof buf, "%" PRIu64 " B", bytes);
    else if (bytes < 1024ull * 1024)
        std::snprintf(buf, sizeof buf, "%.1f KB",
                      static_cast<double>(bytes) / 1024.0);
    else
        std::snprintf(buf, sizeof buf, "%.1f MB",
                      static_cast<double>(bytes) / (1024.0 * 1024.0));
    return buf;
}

} // namespace

// ------------------------------------------------------------- tracker

namespace {

constexpr size_t kMinTable = 64;     ///< entries; a power of two
constexpr uint64_t kMinWords = 16;   ///< time-axis words (1024 slots)

/** Live slots in words [0, w) of a 1-based Fenwick tree. */
uint64_t
fenwickPrefix(const std::vector<uint32_t> &tree, uint64_t w)
{
    uint64_t sum = 0;
    for (; w > 0; w &= w - 1)
        sum += tree[w];
    return sum;
}

void
fenwickAdd(std::vector<uint32_t> &tree, uint64_t w, uint32_t delta)
{
    for (++w; w < tree.size(); w += w & (~w + 1))
        tree[w] += delta;
}

/** Live slots of @p word below @p slot's bit. */
uint32_t
liveBelowInWord(uint64_t word, uint32_t slot)
{
    return static_cast<uint32_t>(
        std::popcount(word & ((1ull << (slot & 63)) - 1)));
}

} // namespace

ReuseDistanceTracker::ReuseDistanceTracker(double sample_rate)
    : rate_(sample_rate)
{
    if (!(rate_ > 0.0) || rate_ > 1.0)
        throw Exception(ErrorCode::BadArgument,
                        "reuse-distance sample rate must be in (0, 1]");
    // Spatial filter: track a key iff the top 32 bits of its hash fall
    // under rate * 2^32. rate 1.0 accepts everything (exact mode).
    threshold_ = static_cast<uint64_t>(rate_ * 4294967296.0);
    compactAxis(kMinWords);
}

bool
ReuseDistanceTracker::sampled(uint64_t key) const
{
    return (mix64(key) >> 32) < threshold_;
}

ReuseDistanceTracker::Entry &
ReuseDistanceTracker::probe(uint64_t key, uint64_t hash)
{
    const size_t mask = table_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask)
        if (table_[i].slot == kFree || table_[i].key == key)
            return table_[i];
}

void
ReuseDistanceTracker::growTable()
{
    std::vector<Entry> old(std::max(kMinTable, table_.size() * 2),
                           Entry{0, 0, kFree});
    old.swap(table_);
    for (const Entry &e : old)
        if (e.slot != kFree)
            probe(e.key, mix64(e.key)) = e;
}

uint32_t
ReuseDistanceTracker::pushSlot()
{
    const uint32_t slot = axis_end_++;
    bits_[slot >> 6] |= 1ull << (slot & 63);
    fenwickAdd(fenwick_, slot >> 6, 1);
    ++live_;
    return slot;
}

void
ReuseDistanceTracker::dropSlot(uint32_t slot)
{
    bits_[slot >> 6] &= ~(1ull << (slot & 63));
    fenwickAdd(fenwick_, slot >> 6, ~0u);
    --live_;
}

void
ReuseDistanceTracker::compactAxis(uint64_t words)
{
    // Slot order is recency order, so renumbering every live slot to its
    // rank keeps every future distance and frees the dead tail.
    if (words * 64 >= kFree)
        throw Exception(ErrorCode::OutOfRange,
                        "ReuseDistanceTracker: time axis overflow");
    std::vector<uint32_t> below(bits_.size());
    for (size_t w = 1; w < bits_.size(); ++w)
        below[w] = below[w - 1] +
                   static_cast<uint32_t>(std::popcount(bits_[w - 1]));
    for (Entry &e : table_)
        if (e.slot != kFree)
            e.slot = below[e.slot >> 6] +
                     liveBelowInWord(bits_[e.slot >> 6], e.slot);
    bits_.assign(words, 0);
    for (uint64_t w = 0; w < live_ / 64; ++w)
        bits_[w] = ~0ull;
    if (live_ % 64)
        bits_[live_ / 64] = (1ull << (live_ % 64)) - 1;
    // Linear-time Fenwick build from the per-word counts.
    fenwick_.assign(words + 1, 0);
    for (uint64_t i = 1; i <= words; ++i) {
        fenwick_[i] += static_cast<uint32_t>(std::popcount(bits_[i - 1]));
        const uint64_t parent = i + (i & (~i + 1));
        if (parent <= words)
            fenwick_[parent] += fenwick_[i];
    }
    axis_end_ = static_cast<uint32_t>(live_);
}

void
ReuseDistanceTracker::record(uint64_t key)
{
    ++recorded_;
    ++interval_accesses_;
    const uint64_t hash = mix64(key);
    if ((hash >> 32) >= threshold_)
        return;
    ++sampled_total_;
    const uint64_t now = clock_++;
    // Keep the table at most 3/4 full and a free slot on the axis; the
    // axis at least twice the live set, so compaction stays amortized.
    if ((live_ + 1) * 4 > table_.size() * 3)
        growTable();
    if (axis_end_ == bits_.size() * 64)
        compactAxis(std::max(kMinWords, live_ / 32 + 1));
    Entry &e = probe(key, hash);
    if (e.slot == kFree) {
        ++cold_;
        ++interval_cold_;
        ++interval_distinct_;
        e = Entry{key, now, pushSlot()};
        return;
    }
    // Distinct sampled units touched since the previous reference (the
    // live slots above this one), rescaled to a full-stream distance
    // under sampling.
    const uint64_t below = fenwickPrefix(fenwick_, e.slot >> 6) +
                           liveBelowInWord(bits_[e.slot >> 6], e.slot);
    const uint64_t d_sampled = live_ - 1 - below;
    const uint64_t d =
        rate_ < 1.0 ? static_cast<uint64_t>(
                          std::llround(static_cast<double>(d_sampled) / rate_))
                    : d_sampled;
    if (d < kMaxTrackedDistance) {
        if (d >= hist_.size())
            hist_.resize(std::max<size_t>(d + 1, hist_.size() * 2), 0);
        ++hist_[d];
    } else {
        ++overflow_;
    }
    suffix_stale_ = true;
    if (e.time < interval_start_)
        ++interval_distinct_;
    dropSlot(e.slot);
    e.slot = pushSlot();
    e.time = now;
}

WorkingSetRow
ReuseDistanceTracker::peekInterval(uint32_t frame_begin,
                                   uint32_t frame_end) const
{
    const double inv = 1.0 / rate_;
    WorkingSetRow row;
    row.frame_begin = frame_begin;
    row.frame_end = frame_end;
    row.accesses = interval_accesses_;
    row.distinct_units = static_cast<uint64_t>(
        std::llround(static_cast<double>(interval_distinct_) * inv));
    row.cold_units = static_cast<uint64_t>(
        std::llround(static_cast<double>(interval_cold_) * inv));
    return row;
}

WorkingSetRow
ReuseDistanceTracker::closeInterval(uint32_t frame_begin, uint32_t frame_end)
{
    const WorkingSetRow row = peekInterval(frame_begin, frame_end);
    interval_accesses_ = 0;
    interval_distinct_ = 0;
    interval_cold_ = 0;
    interval_start_ = clock_;
    return row;
}

uint64_t
ReuseDistanceTracker::totalAccesses() const
{
    return static_cast<uint64_t>(std::llround(
               static_cast<double>(sampled_total_) / rate_)) +
           repeats_;
}

uint64_t
ReuseDistanceTracker::distinctUnits() const
{
    return static_cast<uint64_t>(
        std::llround(static_cast<double>(cold_) / rate_));
}

uint64_t
ReuseDistanceTracker::coldAccesses() const
{
    return distinctUnits();
}

double
ReuseDistanceTracker::missRatio(uint64_t capacity_units) const
{
    const double total = static_cast<double>(sampled_total_) / rate_ +
                         static_cast<double>(repeats_);
    if (total <= 0.0)
        return 0.0;
    if (capacity_units == 0)
        return 1.0;
    // An access at reuse distance d hits any LRU cache with capacity
    // > d, so misses(C) = cold + all accesses with distance >= C. Every
    // count is an integer below 2^53, so summing in uint64_t gives the
    // same double as summing in double.
    if (suffix_stale_) {
        suffix_.assign(hist_.size() + 1, 0);
        for (size_t d = hist_.size(); d-- > 0;)
            suffix_[d] = suffix_[d + 1] + hist_[d];
        suffix_stale_ = false;
    }
    const uint64_t tail =
        capacity_units < suffix_.size() ? suffix_[capacity_units] : 0;
    const double misses = static_cast<double>(cold_ + overflow_ + tail);
    return (misses / rate_) / total;
}

std::vector<MrcPoint>
ReuseDistanceTracker::curve() const
{
    std::vector<MrcPoint> out;
    const uint64_t limit = std::max<uint64_t>(1, distinctUnits());
    for (uint64_t c = 1;; c <<= 1) {
        out.push_back({c, missRatio(c)});
        if (c >= limit || c > (1ull << 40))
            break;
    }
    return out;
}

namespace {
constexpr uint32_t kTrackerTag = snapTag("RDT ");
constexpr uint32_t kProfilerTag = snapTag("PROF");
} // namespace

void
ReuseDistanceTracker::save(SnapshotWriter &w) const
{
    w.section(kTrackerTag);
    w.f64(rate_);
    w.u64(clock_);
    // The keys' logical timestamps in sorted key order; the stack is a
    // pure function of their time order, so it is not serialized.
    std::vector<std::pair<uint64_t, uint64_t>> live;
    live.reserve(live_);
    for (const Entry &e : table_)
        if (e.slot != kFree)
            live.emplace_back(e.key, e.time);
    std::sort(live.begin(), live.end());
    w.u64(live.size());
    for (const auto &[key, t] : live) {
        w.u64(key);
        w.u64(t);
    }
    // Trim growth padding: hist_'s doubling capacity depends on access
    // order, and bit-identical resume requires canonical bytes.
    std::vector<uint64_t> hist = hist_;
    while (!hist.empty() && hist.back() == 0)
        hist.pop_back();
    w.u64Vec(hist);
    w.u64(overflow_);
    w.u64(cold_);
    w.u64(sampled_total_);
    w.u64(repeats_);
    w.u64(recorded_);
    w.u64(interval_accesses_);
    w.u64(interval_distinct_);
    w.u64(interval_cold_);
    w.u64(interval_start_);
}

void
ReuseDistanceTracker::load(SnapshotReader &r)
{
    r.expectSection(kTrackerTag, "ReuseDistanceTracker");
    const double rate = r.f64();
    if (rate != rate_)
        throw Exception(ErrorCode::VersionMismatch,
                        "ReuseDistanceTracker: snapshot sample rate " +
                            std::to_string(rate) +
                            " does not match the configured " +
                            std::to_string(rate_));
    clock_ = r.u64();
    const uint64_t live = r.u64();
    // (time, key) pairs; the size is checked against the payload as it
    // is read, so a damaged count cannot force a huge allocation.
    std::vector<std::pair<uint64_t, uint64_t>> by_time;
    uint64_t prev_key = 0;
    for (uint64_t i = 0; i < live; ++i) {
        const uint64_t key = r.u64();
        const uint64_t t = r.u64();
        if (i > 0 && key <= prev_key)
            throw Exception(ErrorCode::Corrupt,
                            "ReuseDistanceTracker: live keys not "
                            "strictly increasing");
        if (t >= clock_)
            throw Exception(ErrorCode::Corrupt,
                            "ReuseDistanceTracker: timestamp beyond clock");
        prev_key = key;
        by_time.emplace_back(t, key);
    }
    std::sort(by_time.begin(), by_time.end());
    for (size_t i = 1; i < by_time.size(); ++i)
        if (by_time[i].first == by_time[i - 1].first)
            throw Exception(ErrorCode::Corrupt,
                            "ReuseDistanceTracker: timestamp " +
                                std::to_string(by_time[i].first) +
                                " held by two keys");
    // Rebuild the stack compacted: the i-th oldest key takes slot i.
    table_.clear();
    live_ = 0;
    axis_end_ = 0;
    while (by_time.size() * 4 > table_.size() * 3)
        growTable();
    compactAxis(std::max(kMinWords, by_time.size() / 32 + 1));
    for (const auto &[t, key] : by_time)
        probe(key, mix64(key)) = Entry{key, t, pushSlot()};
    r.u64Vec(hist_);
    suffix_stale_ = true;
    overflow_ = r.u64();
    cold_ = r.u64();
    sampled_total_ = r.u64();
    repeats_ = r.u64();
    recorded_ = r.u64();
    interval_accesses_ = r.u64();
    interval_distinct_ = r.u64();
    interval_cold_ = r.u64();
    interval_start_ = r.u64();
}

// ----------------------------------------------------------------- cli

ReuseProfilerConfig
mrcFromCli(const CommandLine &cli)
{
    ReuseProfilerConfig cfg;
    cfg.mrc_out = cli.getString("mrc-out", "");
    cfg.heatmap_out = cli.getString("heatmap-out", "");
    cfg.enabled = cli.getFlag("mrc") || !cfg.mrc_out.empty() ||
                  !cfg.heatmap_out.empty();
    cfg.sample_rate = cli.getDouble("mrc-sample-rate", 1.0);
    if (!(cfg.sample_rate > 0.0) || cfg.sample_rate > 1.0)
        throw Exception(ErrorCode::BadArgument,
                        "--mrc-sample-rate must be in (0, 1]");
    const unsigned long interval = cli.getUnsigned("mrc-interval", 8);
    if (interval == 0)
        throw Exception(ErrorCode::BadArgument,
                        "--mrc-interval must be >= 1");
    cfg.interval_frames = static_cast<uint32_t>(interval);
    const unsigned long granule = cli.getUnsigned("heatmap-granule", 16);
    if (granule == 0 || (granule & (granule - 1)) != 0)
        throw Exception(ErrorCode::BadArgument,
                        "--heatmap-granule must be a power of two");
    cfg.tex_granule = static_cast<uint32_t>(granule);
    return cfg;
}

// ------------------------------------------------------------ profiler

ReuseProfiler::ReuseProfiler(const ReuseProfilerConfig &config)
    : cfg_(config), l1_(config.sample_rate), l2_(config.sample_rate)
{
    if (cfg_.screen_width > 0 && cfg_.screen_height > 0) {
        screen_.width = cfg_.screen_width;
        screen_.height = cfg_.screen_height;
        screen_.accesses.assign(
            static_cast<size_t>(screen_.width) * screen_.height, 0);
        screen_.misses.assign(
            static_cast<size_t>(screen_.width) * screen_.height, 0);
    }
}

void
ReuseProfiler::bindTexture(uint32_t tid, uint32_t w, uint32_t h)
{
    bound_tid_ = tid;
    bound_w_ = w;
    bound_h_ = h;
    bound_grid_ = nullptr;
    tex_dims_[tid] = {w, h};
}

HeatmapGrid &
ReuseProfiler::grid(uint32_t tid)
{
    HeatmapGrid &g = tex_grids_[tid];
    if (g.width == 0) {
        g.width = std::max(1u, (bound_w_ + cfg_.tex_granule - 1) /
                                   cfg_.tex_granule);
        g.height = std::max(1u, (bound_h_ + cfg_.tex_granule - 1) /
                                    cfg_.tex_granule);
        g.accesses.assign(static_cast<size_t>(g.width) * g.height, 0);
        g.misses.assign(static_cast<size_t>(g.width) * g.height, 0);
    }
    return g;
}

void
ReuseProfiler::bumpTexCell(uint32_t x, uint32_t y, uint32_t mip, bool miss)
{
    if (!bound_grid_)
        bound_grid_ = &grid(bound_tid_);
    // Fold MIP levels onto the base level: level-m texel (x, y) covers
    // base texels starting at (x << m, y << m).
    const uint32_t gx = std::min((x << mip) / cfg_.tex_granule,
                                 bound_grid_->width - 1);
    const uint32_t gy = std::min((y << mip) / cfg_.tex_granule,
                                 bound_grid_->height - 1);
    const size_t idx = static_cast<size_t>(gy) * bound_grid_->width + gx;
    ++bound_grid_->accesses[idx];
    if (miss)
        ++bound_grid_->misses[idx];
}

void
ReuseProfiler::onL1Access(uint64_t line_key, bool l1_hit, uint32_t x,
                          uint32_t y, uint32_t mip)
{
    l1_.record(line_key);
    bumpTexCell(x, y, mip, !l1_hit);
    if (!l1_hit && screen_.width > 0 && cur_px_ < screen_.width &&
        cur_py_ < screen_.height)
        ++screen_.accesses[static_cast<size_t>(cur_py_) * screen_.width +
                           cur_px_];
}

void
ReuseProfiler::onL2Sector(uint64_t sector_key, bool full_hit, uint32_t x,
                          uint32_t y, uint32_t mip)
{
    (void)x;
    (void)y;
    (void)mip;
    l2_seen_ = true;
    l2_.record(sector_key);
    if (!full_hit && screen_.width > 0 && cur_px_ < screen_.width &&
        cur_py_ < screen_.height)
        ++screen_.misses[static_cast<size_t>(cur_py_) * screen_.width +
                         cur_px_];
}

void
ReuseProfiler::endFrame(uint64_t frame_accesses)
{
    // Everything the simulator counted but the profiler did not record
    // is a coalesced / quad-deduplicated repeat: a distance-zero hit.
    accesses_seen_ += frame_accesses;
    const uint64_t recorded = l1_.recordedRaw();
    l1_.addRepeats(frame_accesses - (recorded - l1_record_mark_));
    l1_record_mark_ = recorded;
    ++frames_;
    if (frames_ - interval_begin_ >= cfg_.interval_frames) {
        // Close both streams so their interval clocks stay aligned even
        // if the L2 stream only appears later; empty L2 rows are simply
        // not exported.
        ws_l1_.push_back(l1_.closeInterval(interval_begin_, frames_));
        ws_l2_.push_back(l2_.closeInterval(interval_begin_, frames_));
        interval_begin_ = frames_;
    }
}

// -------------------------------------------------------------- export

std::vector<WorkingSetRow>
ReuseProfiler::spectrumRows(bool l2_stream) const
{
    std::vector<WorkingSetRow> rows = l2_stream ? ws_l2_ : ws_l1_;
    if (frames_ > interval_begin_) {
        const ReuseDistanceTracker &t = l2_stream ? l2_ : l1_;
        const WorkingSetRow tail = t.peekInterval(interval_begin_, frames_);
        if (tail.accesses > 0)
            rows.push_back(tail);
    }
    return rows;
}

void
ReuseProfiler::writeMrc(const std::string &base) const
{
    // MRC points.
    {
        const std::string path = base + ".csv";
        std::FILE *f = openOut(path);
        std::fprintf(f, "level,capacity_units,capacity_bytes,miss_ratio\n");
        for (const MrcPoint &p : l1_.curve())
            std::fprintf(f, "l1,%" PRIu64 ",%" PRIu64 ",%.6f\n",
                         p.capacity_units,
                         p.capacity_units * cfg_.l1_unit_bytes,
                         p.miss_ratio);
        if (l2_seen_) {
            for (const MrcPoint &p : l2_.curve())
                std::fprintf(f, "l2,%" PRIu64 ",%" PRIu64 ",%.6f\n",
                             p.capacity_units,
                             p.capacity_units * cfg_.l2_unit_bytes,
                             p.miss_ratio);
        }
        closeOut(f, path);
    }
    // Working-set spectra (closed intervals plus the open tail, so a
    // run shorter than one interval still reports a spectrum).
    {
        const std::string path = base + ".ws.csv";
        std::FILE *f = openOut(path);
        std::fprintf(f, "level,frame_begin,frame_end,accesses,"
                        "distinct_units,cold_units,working_set_bytes\n");
        const auto dump = [&](const char *level,
                              const std::vector<WorkingSetRow> &rows,
                              uint64_t unit_bytes) {
            for (const WorkingSetRow &row : rows)
                std::fprintf(f,
                             "%s,%u,%u,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                             ",%" PRIu64 "\n",
                             level, row.frame_begin, row.frame_end,
                             row.accesses, row.distinct_units,
                             row.cold_units,
                             row.distinct_units * unit_bytes);
        };
        dump("l1", spectrumRows(false), cfg_.l1_unit_bytes);
        if (l2_seen_)
            dump("l2", spectrumRows(true), cfg_.l2_unit_bytes);
        closeOut(f, path);
    }
    // Structured JSON (both, plus stream totals).
    {
        JsonWriter j;
        j.beginObject();
        j.kv("sample_rate", l1_.sampleRate());
        j.kv("frames", static_cast<uint64_t>(frames_));
        j.kv("interval_frames", static_cast<uint64_t>(cfg_.interval_frames));
        const auto stream = [&](const char *name,
                                const ReuseDistanceTracker &t,
                                const std::vector<WorkingSetRow> &rows,
                                uint64_t unit_bytes) {
            j.key(name);
            j.beginObject();
            j.kv("unit_bytes", unit_bytes);
            j.kv("accesses", t.totalAccesses());
            j.kv("distinct_units", t.distinctUnits());
            j.kv("cold_accesses", t.coldAccesses());
            j.key("mrc");
            j.beginArray();
            for (const MrcPoint &p : t.curve()) {
                j.beginObject();
                j.kv("capacity_units", p.capacity_units);
                j.kv("capacity_bytes", p.capacity_units * unit_bytes);
                j.kv("miss_ratio", p.miss_ratio);
                j.endObject();
            }
            j.endArray();
            j.key("working_set");
            j.beginArray();
            for (const WorkingSetRow &row : rows) {
                j.beginObject();
                j.kv("frame_begin", static_cast<uint64_t>(row.frame_begin));
                j.kv("frame_end", static_cast<uint64_t>(row.frame_end));
                j.kv("accesses", row.accesses);
                j.kv("distinct_units", row.distinct_units);
                j.kv("cold_units", row.cold_units);
                j.endObject();
            }
            j.endArray();
            j.endObject();
        };
        stream("l1", l1_, spectrumRows(false), cfg_.l1_unit_bytes);
        if (l2_seen_)
            stream("l2", l2_, spectrumRows(true), cfg_.l2_unit_bytes);
        j.endObject();
        const std::string path = base + ".json";
        std::FILE *f = openOut(path);
        std::fwrite(j.str().data(), 1, j.str().size(), f);
        std::fputc('\n', f);
        closeOut(f, path);
    }
}

namespace {

/** Log-scale a count grid into 8-bit gray (0 stays 0). */
std::vector<uint8_t>
logScale(const std::vector<uint64_t> &counts)
{
    uint64_t max = 0;
    for (uint64_t c : counts)
        max = std::max(max, c);
    std::vector<uint8_t> gray(counts.size(), 0);
    if (max == 0)
        return gray;
    const double denom = std::log1p(static_cast<double>(max));
    for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const double v =
            std::log1p(static_cast<double>(counts[i])) / denom * 255.0;
        gray[i] = static_cast<uint8_t>(std::min(255.0, std::max(1.0, v)));
    }
    return gray;
}

/** Binary P5 PGM writer (throws Io; see util/ppm for the P6 cousin). */
void
writePgmOrThrow(const std::string &path, uint32_t w, uint32_t h,
                const std::vector<uint8_t> &gray)
{
    std::FILE *f = openOut(path);
    std::fprintf(f, "P5\n%u %u\n255\n", w, h);
    std::fwrite(gray.data(), 1, gray.size(), f);
    closeOut(f, path);
}

} // namespace

void
ReuseProfiler::writeHeatmaps(const std::string &base) const
{
    JsonWriter j;
    j.beginObject();
    j.kv("granule", static_cast<uint64_t>(cfg_.tex_granule));
    if (screen_.width > 0) {
        uint64_t l1_total = 0, l2_total = 0;
        for (uint64_t c : screen_.accesses)
            l1_total += c;
        for (uint64_t c : screen_.misses)
            l2_total += c;
        j.key("screen");
        j.beginObject();
        j.kv("width", static_cast<uint64_t>(screen_.width));
        j.kv("height", static_cast<uint64_t>(screen_.height));
        j.kv("l1_misses", l1_total);
        j.kv("l2_misses", l2_total);
        j.endObject();
        writePgmOrThrow(base + ".screen.pgm", screen_.width,
                        screen_.height, logScale(screen_.accesses));
        if (l2_seen_)
            writePgmOrThrow(base + ".screen_l2.pgm", screen_.width,
                            screen_.height, logScale(screen_.misses));
    } else {
        j.key("screen");
        j.nullValue();
    }
    j.key("textures");
    j.beginArray();
    for (const auto &[tid, g] : tex_grids_) {
        uint64_t accesses = 0, misses = 0;
        for (size_t i = 0; i < g.accesses.size(); ++i) {
            accesses += g.accesses[i];
            misses += g.misses[i];
        }
        // Hottest blocks first; the JSON carries the top slice so report
        // can rank without shipping every empty cell.
        std::vector<uint32_t> order(g.accesses.size());
        for (uint32_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](uint32_t a, uint32_t b) {
                      if (g.misses[a] != g.misses[b])
                          return g.misses[a] > g.misses[b];
                      if (g.accesses[a] != g.accesses[b])
                          return g.accesses[a] > g.accesses[b];
                      return a < b;
                  });
        constexpr size_t kTopBlocks = 256;
        j.beginObject();
        j.kv("tid", static_cast<uint64_t>(tid));
        j.kv("width", static_cast<uint64_t>(g.width));
        j.kv("height", static_cast<uint64_t>(g.height));
        j.kv("accesses", accesses);
        j.kv("misses", misses);
        j.key("blocks");
        j.beginArray();
        for (size_t i = 0; i < order.size() && i < kTopBlocks; ++i) {
            const uint32_t idx = order[i];
            if (g.accesses[idx] == 0)
                break;
            j.beginObject();
            j.kv("gx", static_cast<uint64_t>(idx % g.width));
            j.kv("gy", static_cast<uint64_t>(idx / g.width));
            j.kv("accesses", g.accesses[idx]);
            j.kv("misses", g.misses[idx]);
            j.endObject();
        }
        j.endArray();
        j.endObject();
        writePgmOrThrow(base + ".tex" + std::to_string(tid) + ".pgm",
                        g.width, g.height, logScale(g.misses));
    }
    j.endArray();
    j.endObject();
    const std::string path = base + ".json";
    std::FILE *f = openOut(path);
    std::fwrite(j.str().data(), 1, j.str().size(), f);
    std::fputc('\n', f);
    closeOut(f, path);
}

std::string
ReuseProfiler::asciiMrc(uint32_t plot_width) const
{
    std::string out;
    char buf[160];
    const auto plot = [&](const char *name, const ReuseDistanceTracker &t,
                          uint64_t unit_bytes) {
        std::snprintf(buf, sizeof buf,
                      "%s miss-ratio curve (unit %" PRIu64
                      " B, %" PRIu64 " accesses, %" PRIu64 " units)\n",
                      name, unit_bytes, t.totalAccesses(),
                      t.distinctUnits());
        out += buf;
        for (const MrcPoint &p : t.curve()) {
            const uint32_t bar = static_cast<uint32_t>(
                p.miss_ratio * static_cast<double>(plot_width) + 0.5);
            std::snprintf(buf, sizeof buf, "  %10s |",
                          humanBytes(p.capacity_units * unit_bytes).c_str());
            out += buf;
            for (uint32_t i = 0; i < plot_width; ++i)
                out += i < bar ? '#' : ' ';
            std::snprintf(buf, sizeof buf, "| %.4f\n", p.miss_ratio);
            out += buf;
        }
    };
    plot("L1", l1_, cfg_.l1_unit_bytes);
    if (l2_seen_) {
        out += '\n';
        plot("L2", l2_, cfg_.l2_unit_bytes);
    }
    return out;
}

// ------------------------------------------------------------ snapshot

void
ReuseProfiler::save(SnapshotWriter &w) const
{
    w.section(kProfilerTag);
    // Configuration fingerprint: resuming under different knobs would
    // silently skew every curve.
    w.f64(cfg_.sample_rate);
    w.u32(cfg_.interval_frames);
    w.u32(cfg_.tex_granule);
    w.u32(cfg_.screen_width);
    w.u32(cfg_.screen_height);
    l1_.save(w);
    l2_.save(w);
    w.u8(l2_seen_ ? 1 : 0);
    const auto rows = [&w](const std::vector<WorkingSetRow> &ws) {
        w.u64(ws.size());
        for (const WorkingSetRow &row : ws) {
            w.u32(row.frame_begin);
            w.u32(row.frame_end);
            w.u64(row.accesses);
            w.u64(row.distinct_units);
            w.u64(row.cold_units);
        }
    };
    rows(ws_l1_);
    rows(ws_l2_);
    w.u32(frames_);
    w.u32(interval_begin_);
    w.u64(accesses_seen_);
    w.u64(l1_record_mark_);
    w.u32(cur_px_);
    w.u32(cur_py_);
    w.u32(bound_tid_);
    w.u32(bound_w_);
    w.u32(bound_h_);
    w.u64(tex_dims_.size());
    for (const auto &[tid, dims] : tex_dims_) {
        w.u32(tid);
        w.u32(dims.first);
        w.u32(dims.second);
    }
    w.u64(tex_grids_.size());
    for (const auto &[tid, g] : tex_grids_) {
        w.u32(tid);
        w.u32(g.width);
        w.u32(g.height);
        w.u64Vec(g.accesses);
        w.u64Vec(g.misses);
    }
    if (screen_.width > 0) {
        w.u64Vec(screen_.accesses);
        w.u64Vec(screen_.misses);
    }
}

void
ReuseProfiler::load(SnapshotReader &r)
{
    r.expectSection(kProfilerTag, "ReuseProfiler");
    const double rate = r.f64();
    const uint32_t interval = r.u32();
    const uint32_t granule = r.u32();
    const uint32_t sw = r.u32();
    const uint32_t sh = r.u32();
    if (rate != cfg_.sample_rate || interval != cfg_.interval_frames ||
        granule != cfg_.tex_granule || sw != cfg_.screen_width ||
        sh != cfg_.screen_height)
        throw Exception(ErrorCode::VersionMismatch,
                        "ReuseProfiler: snapshot profiler configuration "
                        "does not match the configured profiler");
    l1_.load(r);
    l2_.load(r);
    l2_seen_ = r.u8() != 0;
    const auto rows = [&r](std::vector<WorkingSetRow> &ws) {
        const uint64_t n = r.u64();
        ws.clear();
        ws.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
            WorkingSetRow row;
            row.frame_begin = r.u32();
            row.frame_end = r.u32();
            row.accesses = r.u64();
            row.distinct_units = r.u64();
            row.cold_units = r.u64();
            ws.push_back(row);
        }
    };
    rows(ws_l1_);
    rows(ws_l2_);
    frames_ = r.u32();
    interval_begin_ = r.u32();
    accesses_seen_ = r.u64();
    l1_record_mark_ = r.u64();
    cur_px_ = r.u32();
    cur_py_ = r.u32();
    bound_tid_ = r.u32();
    bound_w_ = r.u32();
    bound_h_ = r.u32();
    const uint64_t dims = r.u64();
    tex_dims_.clear();
    for (uint64_t i = 0; i < dims; ++i) {
        const uint32_t tid = r.u32();
        const uint32_t tw = r.u32();
        const uint32_t th = r.u32();
        tex_dims_[tid] = {tw, th};
    }
    const uint64_t grids = r.u64();
    tex_grids_.clear();
    bound_grid_ = nullptr;
    for (uint64_t i = 0; i < grids; ++i) {
        const uint32_t tid = r.u32();
        HeatmapGrid g;
        g.width = r.u32();
        g.height = r.u32();
        r.u64Vec(g.accesses);
        r.u64Vec(g.misses);
        const size_t cells = static_cast<size_t>(g.width) * g.height;
        if (g.accesses.size() != cells || g.misses.size() != cells)
            throw Exception(ErrorCode::Corrupt,
                            "ReuseProfiler: heatmap grid size mismatch");
        tex_grids_.emplace(tid, std::move(g));
    }
    if (screen_.width > 0) {
        r.u64Vec(screen_.accesses);
        r.u64Vec(screen_.misses);
        const size_t cells =
            static_cast<size_t>(screen_.width) * screen_.height;
        if (screen_.accesses.size() != cells ||
            screen_.misses.size() != cells)
            throw Exception(ErrorCode::Corrupt,
                            "ReuseProfiler: screen grid size mismatch");
    }
}

} // namespace mltc
