/**
 * @file
 * Unit tests for the single-pass reuse-distance profiler: the
 * tracker against a brute-force LRU stack, exact
 * stack-distance miss ratios against independently simulated
 * fully-associative LRU caches, SHARDS sampling error bounds,
 * coalesced-repeat accounting, working-set intervals, heatmap
 * bucketing, and snapshot round-trips (mid-stream resume
 * bit-equivalence at both tracker and whole-CacheSim level).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <list>
#include <map>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "core/cache_sim.hpp"
#include "obs/reuse_profiler.hpp"
#include "texture/texture_manager.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/serializer.hpp"

namespace mltc {
namespace {

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

std::vector<uint8_t>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::vector<uint8_t> bytes;
    int ch;
    while (f && (ch = std::fgetc(f)) != EOF)
        bytes.push_back(static_cast<uint8_t>(ch));
    if (f)
        std::fclose(f);
    return bytes;
}

// ------------------------------------------------ ReuseDistanceTracker

/** Plain fully-associative LRU simulated with a list, for reference. */
uint64_t
lruMisses(const std::vector<uint64_t> &stream, size_t capacity)
{
    std::list<uint64_t> order;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> where;
    uint64_t misses = 0;
    for (uint64_t key : stream) {
        auto it = where.find(key);
        if (it != where.end()) {
            order.splice(order.begin(), order, it->second);
            continue;
        }
        ++misses;
        order.push_front(key);
        where[key] = order.begin();
        if (order.size() > capacity) {
            where.erase(order.back());
            order.pop_back();
        }
    }
    return misses;
}

std::vector<uint64_t>
skewedStream(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<uint64_t> stream;
    stream.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        // Hot set, looping sweep and cold tail — all three stack shapes.
        const uint64_t pick = rng.below(10);
        if (pick < 5)
            stream.push_back(rng.below(24));
        else if (pick < 8)
            stream.push_back(1000 + (i % 300));
        else
            stream.push_back(10000 + rng.below(50000));
    }
    return stream;
}

TEST(ReuseDistanceTracker, ExactMissRatiosMatchSimulatedLru)
{
    const std::vector<uint64_t> stream = skewedStream(7, 30000);
    ReuseDistanceTracker t(1.0);
    for (uint64_t key : stream)
        t.record(key);
    EXPECT_EQ(t.totalAccesses(), stream.size());
    for (size_t capacity : {1u, 2u, 8u, 32u, 128u, 512u}) {
        const double predicted = t.missRatio(capacity);
        const double simulated =
            static_cast<double>(lruMisses(stream, capacity)) /
            static_cast<double>(stream.size());
        EXPECT_NEAR(predicted, simulated, 1e-12) << "capacity " << capacity;
    }
    // Curve covers the whole distinct set and ends at the cold ratio.
    const auto curve = t.curve();
    ASSERT_FALSE(curve.empty());
    EXPECT_GE(curve.back().capacity_units, t.distinctUnits());
    EXPECT_NEAR(curve.back().miss_ratio,
                static_cast<double>(t.coldAccesses()) /
                    static_cast<double>(t.totalAccesses()),
                1e-12);
    // Monotone non-increasing in capacity.
    for (size_t i = 1; i < curve.size(); ++i)
        EXPECT_LE(curve[i].miss_ratio, curve[i - 1].miss_ratio + 1e-12);
}

TEST(ReuseDistanceTracker, RepeatsEnterDenominatorAsGuaranteedHits)
{
    ReuseDistanceTracker t(1.0);
    t.record(1);
    t.record(2);
    t.record(1);
    t.addRepeats(7); // distance-zero accesses: hits at any capacity >= 1
    EXPECT_EQ(t.totalAccesses(), 10u);
    // Capacity 1: the 1,2,1 stream misses all three times; repeats hit.
    EXPECT_NEAR(t.missRatio(1), 3.0 / 10.0, 1e-12);
    EXPECT_NEAR(t.missRatio(2), 2.0 / 10.0, 1e-12);
    EXPECT_NEAR(t.missRatio(0), 1.0, 1e-12);
}

TEST(ReuseDistanceTracker, ShardsSamplingApproximatesExactCurve)
{
    // Spatial sampling needs a wide key population: with only a handful
    // of hot keys the estimator's variance is huge by construction. Use
    // a stream whose hot set alone has thousands of keys.
    std::vector<uint64_t> stream;
    Rng rng(99);
    stream.reserve(120000);
    for (size_t i = 0; i < 120000; ++i) {
        const uint64_t pick = rng.below(10);
        if (pick < 5)
            stream.push_back(rng.below(4000));
        else if (pick < 8)
            stream.push_back(100000 + (i % 8000));
        else
            stream.push_back(1000000 + rng.below(200000));
    }
    ReuseDistanceTracker exact(1.0);
    ReuseDistanceTracker sampled(0.25);
    for (uint64_t key : stream) {
        exact.record(key);
        sampled.record(key);
    }
    // Totals are estimates scaled by 1/rate; distinct units likewise.
    EXPECT_NEAR(static_cast<double>(sampled.totalAccesses()),
                static_cast<double>(exact.totalAccesses()),
                0.1 * static_cast<double>(exact.totalAccesses()));
    for (size_t capacity : {8u, 64u, 512u}) {
        EXPECT_NEAR(sampled.missRatio(capacity), exact.missRatio(capacity),
                    0.05)
            << "capacity " << capacity;
    }
    // The sampled tracker holds roughly rate * distinct keys.
    EXPECT_LT(sampled.trackedUnits(), exact.trackedUnits());
}

TEST(ReuseDistanceTracker, IntervalRowsCountDistinctAndCold)
{
    ReuseDistanceTracker t(1.0);
    t.record(1);
    t.record(2);
    t.record(1);
    t.addRepeats(3);
    const WorkingSetRow a = t.closeInterval(0, 4);
    EXPECT_EQ(a.frame_begin, 0u);
    EXPECT_EQ(a.frame_end, 4u);
    EXPECT_EQ(a.accesses, 6u);       // 3 recorded + 3 repeats
    EXPECT_EQ(a.distinct_units, 2u); // keys 1, 2
    EXPECT_EQ(a.cold_units, 2u);     // both first-ever touches

    t.record(1); // seen before, but first touch in THIS interval
    t.record(9); // never seen
    const WorkingSetRow b = t.peekInterval(4, 8);
    EXPECT_EQ(b.accesses, 2u);
    EXPECT_EQ(b.distinct_units, 2u);
    EXPECT_EQ(b.cold_units, 1u);
    // peek must not close: closing now returns the same row.
    const WorkingSetRow c = t.closeInterval(4, 8);
    EXPECT_EQ(c.distinct_units, b.distinct_units);
    EXPECT_EQ(c.cold_units, b.cold_units);
}

TEST(ReuseDistanceTracker, SaveLoadResumeIsBitEquivalent)
{
    const std::vector<uint64_t> stream = skewedStream(5, 20000);
    const std::string path = tempPath("tracker.snap");

    ReuseDistanceTracker straight(1.0);
    for (uint64_t key : stream)
        straight.record(key);

    ReuseDistanceTracker first(1.0);
    const size_t mid = stream.size() / 2;
    for (size_t i = 0; i < mid; ++i)
        first.record(stream[i]);
    {
        SnapshotWriter w(path);
        first.save(w);
        w.finish();
    }
    ReuseDistanceTracker resumed(1.0);
    {
        SnapshotReader r(path);
        resumed.load(r);
        r.expectEnd();
    }
    for (size_t i = mid; i < stream.size(); ++i)
        resumed.record(stream[i]);

    const std::string pa = tempPath("tracker_a.snap");
    const std::string pb = tempPath("tracker_b.snap");
    {
        SnapshotWriter wa(pa);
        straight.save(wa);
        wa.finish();
        SnapshotWriter wb(pb);
        resumed.save(wb);
        wb.finish();
    }
    EXPECT_EQ(slurp(pa), slurp(pb))
        << "straight and resumed tracker snapshots differ";
    for (size_t capacity : {4u, 64u, 1024u})
        EXPECT_EQ(straight.missRatio(capacity), resumed.missRatio(capacity));
    std::remove(path.c_str());
    std::remove(pa.c_str());
    std::remove(pb.c_str());
}

TEST(ReuseDistanceTracker, LoadRejectsSampleRateSkew)
{
    const std::string path = tempPath("tracker_skew.snap");
    ReuseDistanceTracker a(1.0);
    a.record(1);
    {
        SnapshotWriter w(path);
        a.save(w);
        w.finish();
    }
    ReuseDistanceTracker b(0.5);
    SnapshotReader r(path);
    try {
        b.load(r);
        FAIL() << "sample-rate skew must be rejected";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::VersionMismatch);
    }
    std::remove(path.c_str());
}

TEST(ReuseDistanceTracker, LoadRejectsDuplicateTimestamps)
{
    // Hand-built tracker section: two keys claim timestamp 1, which no
    // run can produce (each reference takes a fresh timestamp).
    const std::string path = tempPath("tracker_dup.snap");
    {
        ReuseDistanceTracker a(1.0);
        a.record(5);
        a.record(9);
        SnapshotWriter good(path);
        a.save(good);
        SnapshotWriter w(path);
        std::vector<uint8_t> bytes = good.payload();
        // Layout: tag, rate, clock, count, then (key, time) pairs sorted
        // by key: (5, 0), (9, 1). Give key 9 timestamp 0 as well.
        const ptrdiff_t pairs = 4 + 8 + 8 + 8;
        ASSERT_GT(bytes.size(), static_cast<size_t>(pairs + 32));
        std::copy(bytes.begin() + pairs + 8, bytes.begin() + pairs + 16,
                  bytes.begin() + pairs + 24);
        for (uint8_t b : bytes)
            w.u8(b);
        w.finish();
    }
    ReuseDistanceTracker b(1.0);
    SnapshotReader r(path);
    try {
        b.load(r);
        FAIL() << "duplicate timestamps must be rejected";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::Corrupt);
        EXPECT_NE(std::string(e.what()).find("timestamp 0"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

// ------------------------------------ brute-force LRU-stack differential

/**
 * Mattson's stack kept literally: a vector ordered from least to most
 * recently used, searched from the recent end, so an access costs
 * O(its distance). Obviously correct, and the reference the tracker
 * must match count for count: distances (rescaled as the tracker
 * rescales them), cold touches, interval counters and miss ratios.
 */
class BruteForceStack
{
  public:
    explicit BruteForceStack(double rate) : rate_(rate) {}

    void
    record(uint64_t key, bool sampled)
    {
        ++interval_accesses_;
        if (!sampled)
            return;
        ++sampled_total_;
        const uint64_t now = clock_++;
        const auto it = last_.find(key);
        if (it == last_.end()) {
            ++cold_;
            ++interval_cold_;
            ++interval_distinct_;
            stack_.push_back(key);
            last_.emplace(key, now);
            return;
        }
        size_t pos = stack_.size() - 1;
        while (stack_[pos] != key)
            --pos;
        const uint64_t d_sampled = stack_.size() - 1 - pos;
        const uint64_t d =
            rate_ < 1.0 ? static_cast<uint64_t>(std::llround(
                              static_cast<double>(d_sampled) / rate_))
                        : d_sampled;
        ++hist_[d];
        if (it->second < interval_start_)
            ++interval_distinct_;
        stack_.erase(stack_.begin() + static_cast<ptrdiff_t>(pos));
        stack_.push_back(key);
        it->second = now;
    }

    void
    addRepeats(uint64_t n)
    {
        repeats_ += n;
        interval_accesses_ += n;
    }

    /** misses(C) = cold + every access at distance >= C, rescaled. */
    double
    missRatio(uint64_t capacity) const
    {
        const double total =
            static_cast<double>(sampled_total_) / rate_ +
            static_cast<double>(repeats_);
        if (total <= 0.0)
            return 0.0;
        if (capacity == 0)
            return 1.0;
        uint64_t misses = cold_;
        for (auto it = hist_.lower_bound(capacity); it != hist_.end(); ++it)
            misses += it->second;
        return (static_cast<double>(misses) / rate_) / total;
    }

    /** Interval counters as (accesses, distinct, cold), then reset. */
    std::array<uint64_t, 3>
    closeInterval()
    {
        const std::array<uint64_t, 3> row{interval_accesses_,
                                          interval_distinct_, interval_cold_};
        interval_accesses_ = interval_distinct_ = interval_cold_ = 0;
        interval_start_ = clock_;
        return row;
    }

    uint64_t live() const { return stack_.size(); }
    uint64_t maxDistance() const
    {
        return hist_.empty() ? 0 : hist_.rbegin()->first;
    }

  private:
    double rate_;
    std::vector<uint64_t> stack_;
    std::unordered_map<uint64_t, uint64_t> last_; ///< key -> timestamp
    std::map<uint64_t, uint64_t> hist_;           ///< distance -> count
    uint64_t clock_ = 0;
    uint64_t cold_ = 0;
    uint64_t sampled_total_ = 0;
    uint64_t repeats_ = 0;
    uint64_t interval_accesses_ = 0;
    uint64_t interval_distinct_ = 0;
    uint64_t interval_cold_ = 0;
    uint64_t interval_start_ = 0;
};

/**
 * A stream whose live set keeps growing (so the tracker's key map grows
 * and its time axis compacts many times over) with every distance
 * shape: a hot set, a looping sweep, uniform picks from a widening
 * pool, fresh full-width keys and the edge keys 0 and ~0.
 */
std::vector<uint64_t>
differentialStream(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<uint64_t> stream;
    stream.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t pick = rng.below(20);
        if (pick < 8)
            stream.push_back(rng.below(48));
        else if (pick < 13)
            stream.push_back(5000 + (i % 3000));
        else if (pick < 17)
            stream.push_back(100000 + rng.below(1 + i / 4));
        else if (pick < 19)
            stream.push_back(rng.next());
        else
            stream.push_back(rng.below(2) ? 0 : ~0ull);
    }
    return stream;
}

/** Drive @p t and the reference with @p stream; compare as they go. */
void
expectMatchesBruteForce(ReuseDistanceTracker &t, BruteForceStack &ref,
                        const std::vector<uint64_t> &stream)
{
    for (size_t i = 0; i < stream.size(); ++i) {
        t.record(stream[i]);
        ref.record(stream[i], t.sampled(stream[i]));
        if (i % 97 == 0) {
            t.addRepeats(i % 5);
            ref.addRepeats(i % 5);
        }
        if (i % 7919 == 7918) {
            ASSERT_EQ(t.trackedUnits(), ref.live()) << "access " << i;
            for (uint64_t c : {1u, 7u, 64u, 1000u, 4096u})
                ASSERT_EQ(t.missRatio(c), ref.missRatio(c))
                    << "access " << i << ", capacity " << c;
            const WorkingSetRow row = t.closeInterval(0, 1);
            const std::array<uint64_t, 3> want = ref.closeInterval();
            ASSERT_EQ(row.accesses, want[0]) << "access " << i;
            // Rows are rescaled by 1/rate; compare the sampled counts.
            ASSERT_EQ(row.distinct_units,
                      static_cast<uint64_t>(std::llround(
                          static_cast<double>(want[1]) / t.sampleRate())))
                << "access " << i;
            ASSERT_EQ(row.cold_units,
                      static_cast<uint64_t>(std::llround(
                          static_cast<double>(want[2]) / t.sampleRate())))
                << "access " << i;
        }
    }
    // Every suffix sum agrees, so every histogram bucket does.
    for (uint64_t c = 0; c <= ref.maxDistance() + 2; ++c)
        ASSERT_EQ(t.missRatio(c), ref.missRatio(c)) << "capacity " << c;
}

TEST(ReuseDistanceTracker, MatchesBruteForceStackExactly)
{
    for (uint64_t seed : {3u, 17u}) {
        ReuseDistanceTracker t(1.0);
        BruteForceStack ref(1.0);
        expectMatchesBruteForce(t, ref, differentialStream(seed, 60000));
        EXPECT_GT(ref.live(), 10000u) << "the live set must keep growing";
    }
}

TEST(ReuseDistanceTracker, MatchesBruteForceStackSampled)
{
    for (uint64_t seed : {5u, 23u}) {
        ReuseDistanceTracker t(0.25);
        BruteForceStack ref(0.25);
        expectMatchesBruteForce(t, ref, differentialStream(seed, 80000));
        EXPECT_GT(ref.live(), 2500u);
    }
}

std::vector<uint8_t>
savedBytes(const ReuseDistanceTracker &t)
{
    SnapshotWriter w("unused");
    t.save(w);
    return w.payload();
}

TEST(ReuseDistanceTracker, MidStreamResumeMatchesStraightRunAndBruteForce)
{
    const std::vector<uint64_t> stream = differentialStream(29, 60000);
    const std::vector<uint64_t> head(stream.begin(), stream.begin() + 37000);
    const std::vector<uint64_t> tail(stream.begin() + 37000, stream.end());
    for (double rate : {1.0, 0.25}) {
        ReuseDistanceTracker first(rate);
        BruteForceStack ref(rate);
        expectMatchesBruteForce(first, ref, head);
        const std::string path = tempPath("tracker_mid.snap");
        {
            SnapshotWriter w(path);
            first.save(w);
            w.finish();
        }
        ReuseDistanceTracker resumed(rate);
        {
            SnapshotReader r(path);
            resumed.load(r);
            r.expectEnd();
        }
        std::remove(path.c_str());
        EXPECT_EQ(savedBytes(resumed), savedBytes(first)) << "rate " << rate;
        expectMatchesBruteForce(resumed, ref, tail);

        // The straight run repeats the differential's repeats and
        // interval closes, which restart at the resume point.
        ReuseDistanceTracker straight(rate);
        for (size_t i = 0; i < stream.size(); ++i) {
            straight.record(stream[i]);
            const size_t j = i < head.size() ? i : i - head.size();
            if (j % 97 == 0)
                straight.addRepeats(j % 5);
            if (j % 7919 == 7918)
                straight.closeInterval(0, 1);
        }
        EXPECT_EQ(savedBytes(resumed), savedBytes(straight))
            << "rate " << rate;
        EXPECT_EQ(resumed.trackedUnits(), straight.trackedUnits());
        for (uint64_t c : {1u, 64u, 4096u})
            EXPECT_EQ(resumed.missRatio(c), straight.missRatio(c));
    }
}

/** FNV-1a over a snapshot payload. */
uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(ReuseDistanceTracker, SaveBytesMatchPinnedHash)
{
    // The snapshot format is the logical timestamps sorted by key, the
    // trimmed histogram and the counters. These hashes were recorded
    // from the earlier order-statistic-treap implementation; any change
    // in what the tracker computes or writes changes them.
    const std::vector<uint64_t> stream = differentialStream(41, 30000);
    for (const auto &[rate, want] :
         {std::pair<double, uint64_t>{1.0, 0xee82a10c186ee62cull},
          std::pair<double, uint64_t>{0.25, 0x0a29ed8a4bafcd47ull}}) {
        ReuseDistanceTracker t(rate);
        for (size_t i = 0; i < stream.size(); ++i) {
            t.record(stream[i]);
            if (i % 1000 == 999)
                t.closeInterval(0, 1);
        }
        t.addRepeats(12);
        EXPECT_EQ(fnv1a(savedBytes(t)), want)
            << "rate " << rate << std::hex << " got 0x"
            << fnv1a(savedBytes(t));
    }
}

// --------------------------------------------------------- ReuseProfiler

ReuseProfilerConfig
profilerConfig()
{
    ReuseProfilerConfig cfg;
    cfg.enabled = true;
    cfg.interval_frames = 2;
    cfg.screen_width = 64;
    cfg.screen_height = 32;
    cfg.tex_granule = 16;
    return cfg;
}

TEST(ReuseProfiler, HeatmapsBucketAccessesAndMisses)
{
    ReuseProfiler p(profilerConfig());
    p.bindTexture(3, 64, 64); // 4x4 grid at granule 16
    p.beginPixel(5, 7);
    p.onL1Access(100, /*l1_hit=*/false, 0, 0, 0);  // cell (0,0), miss
    p.onL1Access(100, /*l1_hit=*/true, 17, 0, 0);  // cell (1,0), hit
    p.onL1Access(101, /*l1_hit=*/false, 8, 8, 1);  // mip 1 folds to (1,1)
    p.onL2Sector(900, /*full_hit=*/false, 0, 0, 0);
    p.endFrame(5);

    const auto &grids = p.textureGrids();
    ASSERT_EQ(grids.size(), 1u);
    const HeatmapGrid &g = grids.at(3);
    ASSERT_EQ(g.width, 4u);
    ASSERT_EQ(g.height, 4u);
    EXPECT_EQ(g.accesses[0], 1u);
    EXPECT_EQ(g.misses[0], 1u);
    EXPECT_EQ(g.accesses[1], 1u);
    EXPECT_EQ(g.misses[1], 0u);
    EXPECT_EQ(g.accesses[4 * 1 + 1], 1u); // mip-folded cell (1,1)

    // Screen: L1 misses land in accesses[], L2 misses in misses[].
    const HeatmapGrid &s = p.screenGrid();
    ASSERT_EQ(s.width, 64u);
    EXPECT_EQ(s.accesses[7 * 64 + 5], 2u); // two L1 misses at (5,7)
    EXPECT_EQ(s.misses[7 * 64 + 5], 1u);   // one L2 full miss
    EXPECT_TRUE(p.hasL2Stream());

    // Repeat accounting: 5 frame accesses - 3 recorded = 2 repeats.
    EXPECT_EQ(p.l1().totalAccesses(), 5u);
}

TEST(ReuseProfiler, SpectrumRowsIncludeOpenTail)
{
    ReuseProfiler p(profilerConfig()); // interval = 2 frames
    p.bindTexture(1, 32, 32);
    p.onL1Access(1, false, 0, 0, 0);
    p.endFrame(1);
    // One frame done, interval still open: workingSet is empty but the
    // exports see the partial row.
    EXPECT_TRUE(p.workingSet(false).empty());
    const auto rows = p.spectrumRows(false);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].frame_begin, 0u);
    EXPECT_EQ(rows[0].frame_end, 1u);
    EXPECT_EQ(rows[0].accesses, 1u);

    p.onL1Access(2, false, 0, 0, 0);
    p.endFrame(1);
    // Interval closed at frame 2: one closed row, no tail.
    ASSERT_EQ(p.workingSet(false).size(), 1u);
    EXPECT_EQ(p.spectrumRows(false).size(), 1u);
    EXPECT_EQ(p.workingSet(false)[0].distinct_units, 2u);
}

TEST(ReuseProfiler, SaveLoadResumeIsBitEquivalent)
{
    const std::string path = tempPath("profiler.snap");
    Rng rng(11);
    const auto drive = [&](ReuseProfiler &p, uint64_t seed, int frames) {
        Rng local(seed);
        for (int f = 0; f < frames; ++f) {
            p.bindTexture(1 + static_cast<uint32_t>(local.below(2)), 64,
                          64);
            uint64_t accesses = 0;
            for (int i = 0; i < 200; ++i) {
                p.beginPixel(static_cast<uint32_t>(local.below(64)),
                             static_cast<uint32_t>(local.below(32)));
                const uint64_t key = local.below(40);
                p.onL1Access(key, local.below(4) != 0,
                             static_cast<uint32_t>(local.below(64)),
                             static_cast<uint32_t>(local.below(64)),
                             static_cast<uint32_t>(local.below(2)));
                ++accesses;
                if (local.below(3) == 0) {
                    p.onL2Sector(500 + local.below(12), local.below(2) == 0,
                                 0, 0, 0);
                }
            }
            p.endFrame(accesses + 17); // 17 coalesced repeats per frame
        }
    };

    ReuseProfiler straight(profilerConfig());
    drive(straight, 1, 4);
    drive(straight, 2, 4);

    ReuseProfiler first(profilerConfig());
    drive(first, 1, 4);
    {
        SnapshotWriter w(path);
        first.save(w);
        w.finish();
    }
    ReuseProfiler resumed(profilerConfig());
    {
        SnapshotReader r(path);
        resumed.load(r);
        r.expectEnd();
    }
    drive(resumed, 2, 4);

    const std::string pa = tempPath("profiler_a.snap");
    const std::string pb = tempPath("profiler_b.snap");
    {
        SnapshotWriter wa(pa);
        straight.save(wa);
        wa.finish();
        SnapshotWriter wb(pb);
        resumed.save(wb);
        wb.finish();
    }
    EXPECT_EQ(slurp(pa), slurp(pb))
        << "straight and resumed profiler snapshots differ";
    EXPECT_EQ(straight.asciiMrc(), resumed.asciiMrc());
    std::remove(path.c_str());
    std::remove(pa.c_str());
    std::remove(pb.c_str());
}

TEST(ReuseProfiler, LoadRejectsConfigSkew)
{
    const std::string path = tempPath("profiler_skew.snap");
    ReuseProfiler a(profilerConfig());
    a.bindTexture(1, 32, 32);
    a.onL1Access(1, false, 0, 0, 0);
    a.endFrame(1);
    {
        SnapshotWriter w(path);
        a.save(w);
        w.finish();
    }
    ReuseProfilerConfig other = profilerConfig();
    other.interval_frames = 9;
    ReuseProfiler b(other);
    SnapshotReader r(path);
    try {
        b.load(r);
        FAIL() << "config skew must be rejected";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::VersionMismatch);
    }
    std::remove(path.c_str());
}

// ------------------------------------------- CacheSim integration

/** A tiny two-texture registry for CacheSim-level tests. */
std::unique_ptr<TextureManager>
smallTextures()
{
    auto tm = std::make_unique<TextureManager>();
    tm->load("a", MipPyramid(Image(64, 64)));
    tm->load("b", MipPyramid(Image(64, 64)));
    return tm;
}

TEST(ReuseProfilerCacheSim, SnapshotRoundTripsThroughCacheSim)
{
    auto textures = smallTextures();
    const std::string path = tempPath("sim_profiler.snap");
    CacheSimConfig sc = CacheSimConfig::twoLevel(1024, 1ull << 18);

    const auto drive = [](CacheSim &sim, uint32_t seed, int frames) {
        Rng rng(seed);
        for (int f = 0; f < frames; ++f) {
            for (int i = 0; i < 400; ++i) {
                sim.bindTexture(1 + static_cast<TextureId>(rng.below(2)));
                sim.beginPixel(static_cast<uint32_t>(rng.below(64)),
                               static_cast<uint32_t>(rng.below(64)));
                // Coords < 32 stay in range at both swept MIP levels.
                sim.access(static_cast<uint32_t>(rng.below(32)),
                           static_cast<uint32_t>(rng.below(32)),
                           static_cast<uint32_t>(rng.below(2)));
            }
            sim.endFrame();
        }
    };

    ReuseProfilerConfig pc = profilerConfig();

    CacheSim straight(*textures, sc, "straight");
    ReuseProfiler p_straight(pc);
    straight.setReuseProfiler(&p_straight);
    drive(straight, 1, 3);
    drive(straight, 2, 3);

    CacheSim first(*textures, sc, "first");
    ReuseProfiler p_first(pc);
    first.setReuseProfiler(&p_first);
    drive(first, 1, 3);
    {
        SnapshotWriter w(path);
        first.save(w);
        w.finish();
    }
    CacheSim resumed(*textures, sc, "resumed");
    ReuseProfiler p_resumed(pc);
    resumed.setReuseProfiler(&p_resumed);
    {
        SnapshotReader r(path);
        resumed.load(r);
        r.expectEnd();
    }
    drive(resumed, 2, 3);

    EXPECT_EQ(p_straight.asciiMrc(), p_resumed.asciiMrc());
    EXPECT_EQ(p_straight.l1().totalAccesses(),
              p_resumed.l1().totalAccesses());
    EXPECT_EQ(p_straight.frames(), p_resumed.frames());
    EXPECT_EQ(straight.totals().accesses, resumed.totals().accesses);

    const std::string pa = tempPath("sim_profiler_a.snap");
    const std::string pb = tempPath("sim_profiler_b.snap");
    {
        SnapshotWriter wa(pa);
        straight.save(wa);
        wa.finish();
        SnapshotWriter wb(pb);
        resumed.save(wb);
        wb.finish();
    }
    EXPECT_EQ(slurp(pa), slurp(pb))
        << "straight and resumed CacheSim+profiler snapshots differ";
    std::remove(path.c_str());
    std::remove(pa.c_str());
    std::remove(pb.c_str());
}

TEST(ReuseProfilerCacheSim, LoadWithoutProfilerRejectsProfiledSnapshot)
{
    auto textures = smallTextures();
    const std::string path = tempPath("sim_profiler_flags.snap");
    CacheSimConfig sc = CacheSimConfig::pull(1024);

    CacheSim a(*textures, sc, "with");
    ReuseProfiler p(profilerConfig());
    a.setReuseProfiler(&p);
    a.bindTexture(1);
    a.access(0, 0, 0);
    a.endFrame();
    {
        SnapshotWriter w(path);
        a.save(w);
        w.finish();
    }
    CacheSim b(*textures, sc, "without");
    SnapshotReader r(path);
    try {
        b.load(r);
        FAIL() << "profiled snapshot must not load into a bare sim";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::VersionMismatch);
    }
    std::remove(path.c_str());
}

TEST(ReuseProfilerCacheSim, PredictsFullyAssociativeSweepExactly)
{
    auto textures = smallTextures();
    // One reference stream, recorded as raw (x, y, mip) triples so it
    // can be replayed into every simulator identically.
    struct Ref
    {
        TextureId tid;
        uint32_t x, y, mip;
    };
    std::vector<Ref> refs;
    Rng rng(31);
    for (int i = 0; i < 30000; ++i)
        refs.push_back({1 + static_cast<TextureId>(rng.below(2)),
                        static_cast<uint32_t>(rng.below(32)),
                        static_cast<uint32_t>(rng.below(32)),
                        static_cast<uint32_t>(rng.below(2))});

    const auto replay = [&](CacheSim &sim) {
        for (const Ref &ref : refs) {
            sim.bindTexture(ref.tid);
            sim.access(ref.x, ref.y, ref.mip);
        }
        sim.endFrame();
    };

    CacheSimConfig profiled_cfg = CacheSimConfig::pull(2 * 1024);
    CacheSim profiled(*textures, profiled_cfg, "profiled");
    ReuseProfilerConfig pc;
    pc.enabled = true;
    ReuseProfiler profiler(pc);
    profiled.setReuseProfiler(&profiler);
    replay(profiled);

    for (uint64_t lines : {4u, 16u, 64u}) {
        CacheSimConfig sc =
            CacheSimConfig::pull(lines * profiled_cfg.l1.lineBytes());
        sc.l1.assoc = 0; // fully associative true-LRU
        CacheSim swept(*textures, sc, "swept");
        replay(swept);
        const double measured =
            static_cast<double>(swept.totals().l1_misses) /
            static_cast<double>(swept.totals().accesses);
        EXPECT_NEAR(profiler.l1().missRatio(lines), measured, 1e-12)
            << lines << " lines";
    }
}

} // namespace
} // namespace mltc
