/**
 * @file
 * Unit tests for the L2 texture cache: page-table allocation, sector
 * mapping, full/partial hit classification, clock eviction, byte
 * accounting and capacity behaviour.
 */
#include <gtest/gtest.h>

#include "core/l2_cache.hpp"

namespace mltc {
namespace {

/** Manager with two 64x64 textures (full MIP chains). */
class L2CacheTest : public ::testing::Test
{
  protected:
    L2CacheTest()
    {
        tex_a = tm.load("a", MipPyramid(Image(64, 64)));
        tex_b = tm.load("b", MipPyramid(Image(64, 64)));
    }

    L2Config
    smallConfig(uint64_t blocks = 4)
    {
        L2Config c;
        c.l2_tile = 16;
        c.l1_tile = 4;
        c.size_bytes = blocks * c.blockBytes();
        return c;
    }

    TextureManager tm;
    TextureId tex_a, tex_b;
};

TEST_F(L2CacheTest, ConfigDerivedQuantities)
{
    L2Config c;
    c.size_bytes = 2ull << 20;
    EXPECT_EQ(c.blockBytes(), 1024u);
    EXPECT_EQ(c.blocks(), 2048u);
    EXPECT_EQ(c.sectors(), 16u);
}

TEST_F(L2CacheTest, RejectsTooManySectors)
{
    L2Config c;
    c.l2_tile = 64;
    c.l1_tile = 4; // 256 sectors > 64-bit mask
    c.size_bytes = 1 << 20;
    EXPECT_THROW(L2TextureCache(tm, c), std::invalid_argument);
}

TEST_F(L2CacheTest, PageTableAllocationIsContiguousPerTexture)
{
    L2TextureCache l2(tm, smallConfig());
    // Each 64x64 chain with 16x16 tiles has 25 blocks (see layout test).
    EXPECT_EQ(l2.tstart(tex_a), 0u);
    EXPECT_EQ(l2.tstart(tex_b), 25u);
    EXPECT_EQ(l2.tableEntries(), 50u);
    EXPECT_EQ(l2.tableIndex(tex_b, 3), 28u);
}

TEST_F(L2CacheTest, UnloadedTexturesGetNoEntries)
{
    tm.unload(tex_a);
    L2TextureCache l2(tm, smallConfig());
    EXPECT_EQ(l2.tableEntries(), 25u);
    EXPECT_EQ(l2.tstart(tex_b), 0u);
}

TEST_F(L2CacheTest, FirstAccessIsFullMiss)
{
    L2TextureCache l2(tm, smallConfig());
    EXPECT_EQ(l2.access(0, 0, 64), L2Result::FullMiss);
    EXPECT_EQ(l2.stats().full_misses, 1u);
    EXPECT_EQ(l2.stats().host_bytes, 64u);
    EXPECT_EQ(l2.allocatedBlocks(), 1u);
}

TEST_F(L2CacheTest, SameSectorIsFullHit)
{
    L2TextureCache l2(tm, smallConfig());
    l2.access(0, 3, 64);
    EXPECT_EQ(l2.access(0, 3, 64), L2Result::FullHit);
    EXPECT_EQ(l2.stats().full_hits, 1u);
    // Full hit reads one sector (64 B at 32-bit texels) from L2 memory.
    EXPECT_EQ(l2.stats().l2_read_bytes, 64u);
    // No additional host traffic.
    EXPECT_EQ(l2.stats().host_bytes, 64u);
}

TEST_F(L2CacheTest, DifferentSectorIsPartialHit)
{
    L2TextureCache l2(tm, smallConfig());
    l2.access(0, 0, 64);
    EXPECT_EQ(l2.access(0, 1, 64), L2Result::PartialHit);
    EXPECT_EQ(l2.stats().partial_hits, 1u);
    // Sector mapping: the partial hit downloads exactly one sector.
    EXPECT_EQ(l2.stats().host_bytes, 128u);
    // Still one physical block.
    EXPECT_EQ(l2.allocatedBlocks(), 1u);
}

TEST_F(L2CacheTest, ProbeReflectsSectors)
{
    L2TextureCache l2(tm, smallConfig());
    l2.access(5, 2, 64);
    EXPECT_TRUE(l2.probe(5, 2));
    EXPECT_FALSE(l2.probe(5, 3));
    EXPECT_FALSE(l2.probe(6, 2));
}

TEST_F(L2CacheTest, EvictionRecyclesBlocksAndClearsVictim)
{
    L2TextureCache l2(tm, smallConfig(2)); // only 2 physical blocks
    l2.access(0, 0, 64);
    l2.access(1, 0, 64);
    EXPECT_EQ(l2.allocatedBlocks(), 2u);
    // Third distinct virtual block forces an eviction.
    EXPECT_EQ(l2.access(2, 0, 64), L2Result::FullMiss);
    EXPECT_EQ(l2.stats().evictions, 1u);
    EXPECT_EQ(l2.allocatedBlocks(), 2u);
    // The victim's sectors were cleared: re-accessing it is a full miss
    // again (not a partial hit on stale sector bits).
    int resident = l2.probe(0, 0) + l2.probe(1, 0);
    EXPECT_EQ(resident, 1);
    EXPECT_TRUE(l2.probe(2, 0));
}

TEST_F(L2CacheTest, ClockKeepsBlockTouchedAfterSweep)
{
    L2TextureCache l2(tm, smallConfig(2));
    l2.access(0, 0, 64); // phys 0
    l2.access(1, 0, 64); // phys 1
    // Both active: the sweep clears both and evicts phys 0 (virtual 0).
    l2.access(2, 0, 64);
    EXPECT_FALSE(l2.probe(0, 0));
    // Re-touch virtual 2 *after* the sweep: its active bit is set again,
    // while virtual 1's stays cleared.
    l2.access(2, 0, 64);
    // Next eviction must take the untouched virtual block 1.
    l2.access(3, 0, 64);
    EXPECT_TRUE(l2.probe(2, 0));
    EXPECT_FALSE(l2.probe(1, 0));
}

TEST_F(L2CacheTest, HostBytesUseCallerDepth)
{
    L2TextureCache l2(tm, smallConfig());
    l2.access(0, 0, 32); // e.g. 16-bit original depth
    l2.access(0, 1, 32);
    EXPECT_EQ(l2.stats().host_bytes, 64u);
}

TEST_F(L2CacheTest, ResetDropsContent)
{
    L2TextureCache l2(tm, smallConfig());
    l2.access(0, 0, 64);
    l2.reset();
    EXPECT_EQ(l2.allocatedBlocks(), 0u);
    EXPECT_FALSE(l2.probe(0, 0));
    EXPECT_EQ(l2.access(0, 0, 64), L2Result::FullMiss);
}

TEST_F(L2CacheTest, VictimSearchStepsRecorded)
{
    L2TextureCache l2(tm, smallConfig(2));
    l2.access(0, 0, 64);
    l2.access(1, 0, 64);
    l2.access(2, 0, 64); // eviction
    EXPECT_GE(l2.stats().victim_steps, 1u);
    EXPECT_GE(l2.stats().victim_steps_max, 1u);
    EXPECT_GE(l2.lastVictimSteps(), 1u);
}

TEST_F(L2CacheTest, AllSectorsOfABlock)
{
    L2TextureCache l2(tm, smallConfig());
    // 16 sectors in a 16x16/4x4 block: one full miss + 15 partial hits.
    for (uint32_t s = 0; s < 16; ++s)
        l2.access(7, s, 64);
    EXPECT_EQ(l2.stats().full_misses, 1u);
    EXPECT_EQ(l2.stats().partial_hits, 15u);
    for (uint32_t s = 0; s < 16; ++s)
        EXPECT_TRUE(l2.probe(7, s));
    EXPECT_EQ(l2.stats().host_bytes, 16u * 64u);
}

TEST_F(L2CacheTest, BadTidThrows)
{
    L2TextureCache l2(tm, smallConfig());
    EXPECT_THROW(l2.tstart(0), std::out_of_range);
    EXPECT_THROW(l2.tstart(99), std::out_of_range);
}

class L2PolicyTest : public ::testing::TestWithParam<ReplacementPolicy>
{
};

/** Every policy keeps the cache consistent under a random workload. */
TEST_P(L2PolicyTest, InvariantUnderRandomAccesses)
{
    TextureManager tm;
    tm.load("t", MipPyramid(Image(256, 256)));
    L2Config cfg;
    cfg.l2_tile = 16;
    cfg.l1_tile = 4;
    cfg.size_bytes = 8 * cfg.blockBytes();
    cfg.policy = GetParam();
    L2TextureCache l2(tm, cfg);

    Rng rng(99);
    for (int i = 0; i < 10000; ++i) {
        uint32_t t_index = static_cast<uint32_t>(rng.below(300));
        uint32_t sector = static_cast<uint32_t>(rng.below(16));
        l2.access(t_index, sector, 64);
        // After any access the block must be resident.
        ASSERT_TRUE(l2.probe(t_index, sector));
        ASSERT_LE(l2.allocatedBlocks(), cfg.blocks());
    }
    const L2Stats &s = l2.stats();
    EXPECT_EQ(s.lookups, 10000u);
    EXPECT_EQ(s.full_hits + s.partial_hits + s.full_misses, 10000u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, L2PolicyTest,
    ::testing::Values(ReplacementPolicy::Clock, ReplacementPolicy::Lru,
                      ReplacementPolicy::Fifo, ReplacementPolicy::Random),
    [](const ::testing::TestParamInfo<ReplacementPolicy> &param_info) {
        return replacementPolicyName(param_info.param);
    });

} // namespace
} // namespace mltc
