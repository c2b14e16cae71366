/**
 * @file
 * Unit tests for the L1 texture cache: geometry validation, hit/miss
 * behaviour, LRU within sets, associativity sweep and stats.
 */
#include <gtest/gtest.h>

#include "core/l1_cache.hpp"
#include "util/rng.hpp"

namespace mltc {
namespace {

uint64_t
key(uint32_t tid, uint32_t l2, uint32_t l1)
{
    return packBlock({tid, l2, l1});
}

TEST(L1Config, Geometry)
{
    L1Config c;
    c.size_bytes = 16 * 1024;
    c.l1_tile = 4;
    EXPECT_EQ(c.lineBytes(), 64u);
    EXPECT_EQ(c.lines(), 256u);

    c.l1_tile = 8;
    EXPECT_EQ(c.lineBytes(), 256u);
    EXPECT_EQ(c.lines(), 64u);
}

TEST(L1Cache, RejectsBadGeometry)
{
    L1Config c;
    c.size_bytes = 100; // not a multiple of 64
    EXPECT_THROW(L1Cache{c}, std::invalid_argument);
    c.size_bytes = 0;
    EXPECT_THROW(L1Cache{c}, std::invalid_argument);
}

TEST(L1Cache, MissThenHit)
{
    L1Config c;
    c.size_bytes = 2 * 1024;
    L1Cache cache(c);
    EXPECT_FALSE(cache.lookup(key(1, 0, 0)));
    cache.fill(key(1, 0, 0));
    EXPECT_TRUE(cache.lookup(key(1, 0, 0)));
    EXPECT_EQ(cache.stats().accesses, 2u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_DOUBLE_EQ(cache.stats().missRate(), 0.5);
}

TEST(L1Cache, DistinctKeysDistinctLines)
{
    L1Config c;
    c.size_bytes = 2 * 1024;
    L1Cache cache(c);
    cache.fill(key(1, 0, 0));
    cache.fill(key(1, 0, 1));
    EXPECT_TRUE(cache.probe(key(1, 0, 0)));
    EXPECT_TRUE(cache.probe(key(1, 0, 1)));
}

TEST(L1Cache, CapacityEvictions)
{
    // 2 KB / 64 B = 32 lines (16 sets x 2 ways). Stream 64 consecutive
    // tiles (4 L2 blocks x 16 sub-blocks): bit-selection indexing maps
    // them 4 per set, so exactly the 2 most recent per set survive.
    L1Config c;
    c.size_bytes = 2 * 1024;
    L1Cache cache(c);
    for (uint32_t i = 0; i < 64; ++i)
        cache.fill(key(1, i / 16, i % 16));
    int resident = 0;
    for (uint32_t i = 0; i < 64; ++i)
        if (cache.probe(key(1, i / 16, i % 16)))
            ++resident;
    EXPECT_EQ(resident, 32);
    // The survivors are the most recently inserted half.
    for (uint32_t i = 32; i < 64; ++i)
        EXPECT_TRUE(cache.probe(key(1, i / 16, i % 16)));
}

TEST(L1Cache, LruWithinSetPreservesRecentlyUsed)
{
    // Fully-associative small cache makes LRU observable directly.
    L1Config c;
    c.size_bytes = 4 * 64; // 4 lines
    c.assoc = 0;           // fully associative
    L1Cache cache(c);
    for (uint32_t i = 0; i < 4; ++i)
        cache.fill(key(1, i, 0));
    // Touch key 0 so key 1 is LRU.
    EXPECT_TRUE(cache.lookup(key(1, 0, 0)));
    cache.fill(key(1, 99, 0)); // evicts key 1
    EXPECT_TRUE(cache.probe(key(1, 0, 0)));
    EXPECT_FALSE(cache.probe(key(1, 1, 0)));
}

TEST(L1Cache, ResetInvalidatesContentKeepsStats)
{
    L1Config c;
    c.size_bytes = 2 * 1024;
    L1Cache cache(c);
    cache.fill(key(1, 0, 0));
    cache.lookup(key(1, 0, 0));
    cache.reset();
    EXPECT_FALSE(cache.probe(key(1, 0, 0)));
    EXPECT_EQ(cache.stats().accesses, 1u);
    cache.clearStats();
    EXPECT_EQ(cache.stats().accesses, 0u);
}

TEST(L1Cache, FullyAssociativeHoldsExactlyCapacity)
{
    L1Config c;
    c.size_bytes = 8 * 64;
    c.assoc = 0;
    L1Cache cache(c);
    for (uint32_t i = 0; i < 8; ++i)
        cache.fill(key(1, i, 0));
    for (uint32_t i = 0; i < 8; ++i)
        EXPECT_TRUE(cache.probe(key(1, i, 0)));
    cache.fill(key(1, 100, 0));
    int resident = 0;
    for (uint32_t i = 0; i < 8; ++i)
        if (cache.probe(key(1, i, 0)))
            ++resident;
    EXPECT_EQ(resident, 7); // exactly one eviction
}

class L1AssocTest : public ::testing::TestWithParam<uint32_t>
{
};

/** Under a working set that fits, every config converges to all hits. */
TEST_P(L1AssocTest, SteadyStateAllHits)
{
    L1Config c;
    c.size_bytes = 16 * 1024;
    c.assoc = GetParam();
    L1Cache cache(c);
    // 64-line working set streamed twice (cache holds 256 lines).
    for (int round = 0; round < 2; ++round)
        for (uint32_t i = 0; i < 64; ++i)
            if (!cache.lookup(key(2, i / 16, i % 16)))
                cache.fill(key(2, i / 16, i % 16));
    // Third pass must be all hits.
    uint64_t misses_before = cache.stats().misses;
    for (uint32_t i = 0; i < 64; ++i)
        EXPECT_TRUE(cache.lookup(key(2, i / 16, i % 16)));
    EXPECT_EQ(cache.stats().misses, misses_before);
}

/** Thrashing a set: with N-way associativity, N alternating keys that
 *  map anywhere still behave sanely and stats add up. */
TEST_P(L1AssocTest, StatsAlwaysConsistent)
{
    L1Config c;
    c.size_bytes = 2 * 1024;
    c.assoc = GetParam();
    L1Cache cache(c);
    Rng rng(31);
    uint64_t manual_misses = 0, manual_accesses = 0;
    for (int i = 0; i < 5000; ++i) {
        uint64_t k = key(1 + static_cast<uint32_t>(rng.below(3)),
                         static_cast<uint32_t>(rng.below(64)),
                         static_cast<uint32_t>(rng.below(16)));
        ++manual_accesses;
        if (!cache.lookup(k)) {
            ++manual_misses;
            cache.fill(k);
            EXPECT_TRUE(cache.probe(k));
        }
    }
    EXPECT_EQ(cache.stats().accesses, manual_accesses);
    EXPECT_EQ(cache.stats().misses, manual_misses);
}

INSTANTIATE_TEST_SUITE_P(
    Assoc, L1AssocTest, ::testing::Values(1u, 2u, 4u, 8u, 0u),
    [](const ::testing::TestParamInfo<uint32_t> &param_info) {
        return param_info.param == 0
                   ? std::string("full")
                   : std::to_string(param_info.param) + "way";
    });

} // namespace
} // namespace mltc
