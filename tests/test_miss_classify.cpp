/**
 * @file
 * Unit tests for the 3C miss classifier: the fully-associative LRU
 * shadow, deterministic hand-built classification scenarios, agreement
 * with an independent brute-force golden model over a randomized
 * reference stream driven by a real direct-mapped cache, attribution /
 * top-texture ranking, and checkpoint round-trips (including mid-stream
 * resume equivalence and capacity-skew rejection).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unistd.h>
#include <unordered_set>
#include <vector>

#include "obs/miss_classify.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/serializer.hpp"

namespace mltc {
namespace {

// PID-suffixed: ctest runs each test case as its own process, possibly
// in parallel, so shared fixed names would race on create/remove.
std::string
tempPath(const char *name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

TEST(ShadowLru, HitMissAndEvictionOrder)
{
    ShadowLru lru(2);
    EXPECT_FALSE(lru.access(1)); // cold
    EXPECT_FALSE(lru.access(2)); // cold
    EXPECT_TRUE(lru.access(1));  // hit, promotes 1 over 2
    EXPECT_FALSE(lru.access(3)); // evicts 2 (the LRU)
    EXPECT_TRUE(lru.access(1));
    EXPECT_FALSE(lru.access(2)); // 2 was evicted
    EXPECT_EQ(lru.size(), 2u);
    EXPECT_EQ(lru.capacity(), 2u);
}

TEST(ShadowLru, ZeroCapacityAlwaysMisses)
{
    ShadowLru lru(0);
    EXPECT_FALSE(lru.access(1));
    EXPECT_FALSE(lru.access(1));
    EXPECT_EQ(lru.size(), 0u);
}

TEST(ShadowLru, SaveLoadPreservesRecencyOrder)
{
    const std::string path = tempPath("shadow_lru.snap");
    ShadowLru a(3);
    a.access(1);
    a.access(2);
    a.access(3);
    a.access(1); // order (MRU..LRU): 1 3 2
    {
        SnapshotWriter w(path);
        a.save(w);
        w.finish();
    }
    ShadowLru b(3);
    {
        SnapshotReader r(path);
        b.load(r);
        r.expectEnd();
    }
    // Same next-eviction behavior: inserting a new key must evict 2.
    EXPECT_FALSE(a.access(9));
    EXPECT_FALSE(b.access(9));
    EXPECT_FALSE(a.access(2));
    EXPECT_FALSE(b.access(2));
    EXPECT_TRUE(b.access(1));
    std::remove(path.c_str());
}

TEST(ShadowLru, CapacitySkewRejected)
{
    const std::string path = tempPath("shadow_skew.snap");
    ShadowLru a(4);
    a.access(1);
    {
        SnapshotWriter w(path);
        a.save(w);
        w.finish();
    }
    ShadowLru b(8);
    SnapshotReader r(path);
    try {
        b.load(r);
        FAIL() << "capacity skew must be rejected";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::VersionMismatch);
    }
    std::remove(path.c_str());
}

TEST(MissClassifier, HandBuiltScenario)
{
    // Shadow capacity 2. Real-cache outcomes are driven explicitly.
    MissClassifier mc(2);
    // First touches are compulsory regardless of the shadow.
    EXPECT_EQ(mc.access(1, 1, false, 0, 0, 64), MissClass::Compulsory);
    EXPECT_EQ(mc.access(2, 2, false, 0, 0, 64), MissClass::Compulsory);
    // Real hit: unclassified, but the shadow still observes the access.
    EXPECT_EQ(mc.access(1, 1, true, 0, 0, 0), std::nullopt);
    // Re-touch of 2 while the shadow holds {1, 2}: a real miss here is
    // the replacement policy's fault -> conflict.
    EXPECT_EQ(mc.access(2, 2, false, 0, 0, 64), MissClass::Conflict);
    // Stream three more distinct keys through; key 2 is now beyond the
    // shadow's capacity, so a real miss on it is a capacity miss.
    EXPECT_EQ(mc.access(3, 3, false, 0, 0, 64), MissClass::Compulsory);
    EXPECT_EQ(mc.access(4, 4, false, 0, 0, 64), MissClass::Compulsory);
    EXPECT_EQ(mc.access(2, 2, false, 0, 0, 64), MissClass::Capacity);

    EXPECT_EQ(mc.totals().compulsory, 4u);
    EXPECT_EQ(mc.totals().conflict, 1u);
    EXPECT_EQ(mc.totals().capacity, 1u);
    EXPECT_EQ(mc.totals().total(), 6u);
    EXPECT_EQ(mc.unitsSeen(), 4u);
}

/**
 * Independent golden model: an explicit seen-set plus a vector-backed
 * LRU, classifying against the same definitions as the paper taxonomy.
 */
struct GoldenClassifier
{
    explicit GoldenClassifier(size_t lines) : capacity(lines) {}

    std::optional<MissClass>
    access(uint64_t key, bool real_hit)
    {
        const auto pos = std::find(lru.begin(), lru.end(), key);
        const bool shadow_hit = pos != lru.end();
        if (shadow_hit)
            lru.erase(pos);
        lru.push_front(key);
        if (lru.size() > capacity)
            lru.pop_back();
        const bool first = seen.insert(key).second;
        if (real_hit)
            return std::nullopt;
        if (first)
            return MissClass::Compulsory;
        return shadow_hit ? MissClass::Conflict : MissClass::Capacity;
    }

    size_t capacity;
    std::deque<uint64_t> lru;
    std::unordered_set<uint64_t> seen;
};

/** A tiny direct-mapped "real" cache to produce honest hit/miss bits. */
struct DirectMapped
{
    explicit DirectMapped(size_t sets) : tags(sets, ~0ull) {}

    bool
    access(uint64_t key)
    {
        uint64_t &slot = tags[key % tags.size()];
        const bool hit = slot == key;
        slot = key;
        return hit;
    }

    std::vector<uint64_t> tags;
};

TEST(MissClassifier, AgreesWithGoldenModelOnRandomStream)
{
    constexpr size_t kCapacity = 8;
    MissClassifier mc(kCapacity);
    GoldenClassifier golden(kCapacity);
    DirectMapped real(kCapacity);
    Rng rng(1234);
    MissClassCounts expected;
    for (int i = 0; i < 20000; ++i) {
        // A skewed key distribution: hot set + occasional cold keys.
        const uint64_t key = (rng.below(10) < 7) ? rng.below(12)
                                                 : 100 + rng.below(4000);
        const bool real_hit = real.access(key);
        const auto got = mc.access(key, key, real_hit,
                                   static_cast<uint32_t>(key % 5), 0, 64);
        const auto want = golden.access(key, real_hit);
        ASSERT_EQ(got, want) << "access " << i << " key " << key;
        if (want)
            expected.add(*want);
    }
    EXPECT_EQ(mc.totals().compulsory, expected.compulsory);
    EXPECT_EQ(mc.totals().capacity, expected.capacity);
    EXPECT_EQ(mc.totals().conflict, expected.conflict);
    EXPECT_EQ(mc.unitsSeen(), golden.seen.size());
    // All three classes must actually occur, or the test proves little.
    EXPECT_GT(expected.compulsory, 0u);
    EXPECT_GT(expected.capacity, 0u);
    EXPECT_GT(expected.conflict, 0u);
}

TEST(MissClassifier, RepeatHeavyStreamMatchesGoldenModel)
{
    // The hot path memoizes consecutive same-key lookups (a guaranteed
    // MRU hit), so hammer exactly that pattern: long runs of one key,
    // interleaved with keys that break the run, against the golden
    // model that has no memo at all.
    constexpr size_t kCapacity = 4;
    MissClassifier mc(kCapacity);
    GoldenClassifier golden(kCapacity);
    DirectMapped real(kCapacity);
    Rng rng(4321);
    for (int run = 0; run < 800; ++run) {
        const uint64_t key = rng.below(16);
        const int len = 1 + static_cast<int>(rng.below(6));
        for (int i = 0; i < len; ++i) {
            const bool real_hit = real.access(key);
            const auto got = mc.access(key, key, real_hit,
                                       static_cast<uint32_t>(key % 3), 0,
                                       64);
            const auto want = golden.access(key, real_hit);
            ASSERT_EQ(got, want) << "run " << run << " rep " << i
                                 << " key " << key;
        }
    }
    EXPECT_EQ(mc.unitsSeen(), golden.seen.size());
}

TEST(MissClassifier, RepeatsWithZeroCapacityShadowStayCapacityMisses)
{
    // Capacity 0 always misses in the shadow; the consecutive-key memo
    // must not fabricate a shadow hit (which would misclassify the
    // repeat as a conflict miss).
    MissClassifier mc(0);
    EXPECT_EQ(mc.access(5, 5, false, 0, 0, 64), MissClass::Compulsory);
    EXPECT_EQ(mc.access(5, 5, false, 0, 0, 64), MissClass::Capacity);
    EXPECT_EQ(mc.access(5, 5, false, 0, 0, 64), MissClass::Capacity);
    EXPECT_EQ(mc.totals().conflict, 0u);
}

TEST(MissClassifier, AttributionRowsAndTopTextures)
{
    MissClassifier mc(4);
    // tex 1 mip 0: two compulsory misses, 128 bytes.
    mc.access(10, 10, false, 1, 0, 64);
    mc.access(11, 11, false, 1, 0, 64);
    // tex 2 mip 1: one compulsory miss, 256 bytes (heavier traffic).
    mc.access(20, 20, false, 2, 1, 256);
    // tex 2 mip 0: a hit contributes nothing.
    mc.access(20, 20, true, 2, 0, 0);

    const auto rows = mc.attributionRows();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].tex, 1u);
    EXPECT_EQ(rows[0].mip, 0u);
    EXPECT_EQ(rows[0].counts.compulsory, 2u);
    EXPECT_EQ(rows[0].bytes, 128u);
    EXPECT_EQ(rows[1].tex, 2u);
    EXPECT_EQ(rows[1].mip, 1u);
    EXPECT_EQ(rows[1].bytes, 256u);

    const auto top = mc.topTexturesByTraffic(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].tex, 2u); // 256 bytes beats 128
    const auto both = mc.topTexturesByTraffic(10);
    ASSERT_EQ(both.size(), 2u);
    EXPECT_EQ(both[1].tex, 1u);
    EXPECT_EQ(both[1].counts.total(), 2u);
}

TEST(MissClassifier, SaveLoadResumeIsBitEquivalent)
{
    constexpr size_t kCapacity = 6;
    const std::string path = tempPath("classifier.snap");
    Rng rng(77);
    std::vector<std::pair<uint64_t, bool>> stream;
    DirectMapped real(kCapacity);
    for (int i = 0; i < 4000; ++i) {
        const uint64_t key = rng.below(64);
        stream.emplace_back(key, real.access(key));
    }

    // Straight run over the whole stream.
    MissClassifier straight(kCapacity);
    for (const auto &[key, hit] : stream)
        straight.access(key, key, hit, static_cast<uint32_t>(key % 3),
                        static_cast<uint32_t>(key % 2), 32);

    // Interrupted run: checkpoint at the midpoint, resume into a fresh
    // classifier, replay the second half.
    MissClassifier first_half(kCapacity);
    const size_t mid = stream.size() / 2;
    for (size_t i = 0; i < mid; ++i)
        first_half.access(stream[i].first, stream[i].first,
                          stream[i].second,
                          static_cast<uint32_t>(stream[i].first % 3),
                          static_cast<uint32_t>(stream[i].first % 2), 32);
    {
        SnapshotWriter w(path);
        first_half.save(w);
        w.finish();
    }
    MissClassifier resumed(kCapacity);
    {
        SnapshotReader r(path);
        resumed.load(r);
        r.expectEnd();
    }
    for (size_t i = mid; i < stream.size(); ++i)
        resumed.access(stream[i].first, stream[i].first, stream[i].second,
                       static_cast<uint32_t>(stream[i].first % 3),
                       static_cast<uint32_t>(stream[i].first % 2), 32);

    EXPECT_EQ(resumed.totals().compulsory, straight.totals().compulsory);
    EXPECT_EQ(resumed.totals().capacity, straight.totals().capacity);
    EXPECT_EQ(resumed.totals().conflict, straight.totals().conflict);
    EXPECT_EQ(resumed.unitsSeen(), straight.unitsSeen());

    const auto a = straight.attributionRows();
    const auto b = resumed.attributionRows();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tex, b[i].tex);
        EXPECT_EQ(a[i].mip, b[i].mip);
        EXPECT_EQ(a[i].counts.total(), b[i].counts.total());
        EXPECT_EQ(a[i].bytes, b[i].bytes);
    }

    // And the serialized images themselves must match: save both again
    // and compare the snapshot payload sizes + a fresh reload.
    const std::string pa = tempPath("classifier_a.snap");
    const std::string pb = tempPath("classifier_b.snap");
    {
        SnapshotWriter wa(pa);
        straight.save(wa);
        wa.finish();
        SnapshotWriter wb(pb);
        resumed.save(wb);
        wb.finish();
    }
    std::FILE *fa = std::fopen(pa.c_str(), "rb");
    std::FILE *fb = std::fopen(pb.c_str(), "rb");
    ASSERT_NE(fa, nullptr);
    ASSERT_NE(fb, nullptr);
    std::vector<uint8_t> ba, bb;
    int ch;
    while ((ch = std::fgetc(fa)) != EOF)
        ba.push_back(static_cast<uint8_t>(ch));
    while ((ch = std::fgetc(fb)) != EOF)
        bb.push_back(static_cast<uint8_t>(ch));
    std::fclose(fa);
    std::fclose(fb);
    EXPECT_EQ(ba, bb) << "straight and resumed snapshots differ";
    std::remove(path.c_str());
    std::remove(pa.c_str());
    std::remove(pb.c_str());
}

TEST(MissClassifier, LoadRejectsCapacitySkew)
{
    const std::string path = tempPath("classifier_skew.snap");
    MissClassifier a(4);
    a.access(1, 1, false, 0, 0, 64);
    {
        SnapshotWriter w(path);
        a.save(w);
        w.finish();
    }
    MissClassifier b(16);
    SnapshotReader r(path);
    try {
        b.load(r);
        FAIL() << "shadow capacity skew must be rejected";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::VersionMismatch);
    }
    std::remove(path.c_str());
}

TEST(MissClassName, StableNames)
{
    EXPECT_STREQ(missClassName(MissClass::Compulsory), "compulsory");
    EXPECT_STREQ(missClassName(MissClass::Capacity), "capacity");
    EXPECT_STREQ(missClassName(MissClass::Conflict), "conflict");
}

} // namespace
} // namespace mltc
