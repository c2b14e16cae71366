/**
 * @file
 * Unit + property tests for the hierarchical <tid, L2, L1> addressing
 * (paper Figure 2). These pin down the exact block numbering scheme the
 * whole simulator relies on.
 */
#include <gtest/gtest.h>

#include <set>

#include "texture/tiled_layout.hpp"
#include "util/rng.hpp"

namespace mltc {
namespace {

TEST(TileSpec, DerivedQuantities)
{
    TileSpec s{16, 4};
    EXPECT_EQ(s.l1PerL2(), 16u);
    EXPECT_EQ(s.l1TileBytes(), 64u);
    EXPECT_EQ(s.l2TileBytes(), 1024u);
}

TEST(TileSpec, EightByEightSectors)
{
    TileSpec s{32, 4};
    EXPECT_EQ(s.l1PerL2(), 64u);
    TileSpec t{16, 8};
    EXPECT_EQ(t.l1PerL2(), 4u);
}

TEST(PackBlock, RoundTrips)
{
    VirtualBlock b{1234, 0xabcdeu, 63};
    VirtualBlock u = unpackBlock(packBlock(b));
    EXPECT_EQ(u, b);
}

TEST(PackBlock, L2KeyMasksSubBlock)
{
    VirtualBlock a{7, 42, 3}, b{7, 42, 9};
    EXPECT_EQ(l2KeyOf(packBlock(a)), l2KeyOf(packBlock(b)));
    VirtualBlock c{7, 43, 3};
    EXPECT_NE(l2KeyOf(packBlock(a)), l2KeyOf(packBlock(c)));
}

TEST(TiledLayout, RejectsBadInputs)
{
    EXPECT_THROW(TiledLayout(100, 64, 3, TileSpec{16, 4}),
                 std::invalid_argument);
    EXPECT_THROW(TiledLayout(64, 64, 0, TileSpec{16, 4}),
                 std::invalid_argument);
    EXPECT_THROW(TiledLayout(64, 64, 3, TileSpec{4, 16}),
                 std::invalid_argument);
    EXPECT_THROW(TiledLayout(64, 64, 3, TileSpec{12, 4}),
                 std::invalid_argument);
}

TEST(TiledLayout, SingleLevelBlockCount)
{
    // 64x64, 16x16 tiles, 1 level -> 4x4 = 16 blocks.
    TiledLayout layout(64, 64, 1, TileSpec{16, 4});
    EXPECT_EQ(layout.totalL2Blocks(), 16u);
    EXPECT_EQ(layout.levelBase(0), 0u);
}

TEST(TiledLayout, LowestLevelOwnsBlockZero)
{
    // Full chain of a 64x64 texture: levels 64,32,16,8,4,2,1 (7 levels).
    TiledLayout layout(64, 64, 7, TileSpec{16, 4});
    // Smallest level (index 6) must start at block 0 (Figure 2: L2
    // numbering runs from the lowest MIP level upward).
    EXPECT_EQ(layout.levelBase(6), 0u);
    // Each of levels 6..2 fits in one 16x16 tile: bases 0..4.
    EXPECT_EQ(layout.levelBase(5), 1u);
    EXPECT_EQ(layout.levelBase(4), 2u);
    EXPECT_EQ(layout.levelBase(3), 3u);
    EXPECT_EQ(layout.levelBase(2), 4u);
    // Level 1 (32x32) has 4 tiles starting at 5; level 0 (64x64) has 16
    // starting at 9.
    EXPECT_EQ(layout.levelBase(1), 5u);
    EXPECT_EQ(layout.levelBase(0), 9u);
    EXPECT_EQ(layout.totalL2Blocks(), 25u);
}

TEST(TiledLayout, EachLevelStartsANewBlock)
{
    TiledLayout layout(32, 32, 6, TileSpec{16, 4});
    std::set<uint32_t> bases;
    for (uint32_t m = 0; m < 6; ++m)
        bases.insert(layout.levelBase(m));
    EXPECT_EQ(bases.size(), 6u); // all distinct
}

TEST(TiledLayout, BlockOfComputesTileCoordinates)
{
    TiledLayout layout(64, 64, 1, TileSpec{16, 4});
    // Texel (17, 33): tile (1, 2) -> block 2*4+1 = 9.
    VirtualBlock b = layout.blockOf(5, 17, 33, 0);
    EXPECT_EQ(b.tid, 5u);
    EXPECT_EQ(b.l2_block, 9u);
    // Within-tile texel (1, 1): L1 sub-tile (0, 0) -> sub-block 0.
    EXPECT_EQ(b.l1_sub, 0u);
}

TEST(TiledLayout, L1SubBlockNumbering)
{
    TiledLayout layout(16, 16, 1, TileSpec{16, 4});
    // Texel (5, 9): L1 tile (1, 2) of 4 per row -> sub 2*4+1 = 9.
    EXPECT_EQ(layout.blockOf(1, 5, 9, 0).l1_sub, 9u);
    // Corners.
    EXPECT_EQ(layout.blockOf(1, 0, 0, 0).l1_sub, 0u);
    EXPECT_EQ(layout.blockOf(1, 15, 15, 0).l1_sub, 15u);
}

TEST(TiledLayout, BlockKeyMatchesBlockOf)
{
    TiledLayout layout(128, 128, 8, TileSpec{16, 4});
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        uint32_t m = static_cast<uint32_t>(rng.below(8));
        uint32_t w = std::max(1u, 128u >> m);
        uint32_t x = static_cast<uint32_t>(rng.below(w));
        uint32_t y = static_cast<uint32_t>(rng.below(w));
        EXPECT_EQ(layout.blockKeyOf(9, x, y, m),
                  packBlock(layout.blockOf(9, x, y, m)));
    }
}

TEST(TiledLayout, LevelSmallerThanTileOccupiesOneBlock)
{
    TiledLayout layout(8, 8, 4, TileSpec{16, 4});
    // All levels are <= 16x16 so each occupies exactly one block.
    EXPECT_EQ(layout.totalL2Blocks(), 4u);
    EXPECT_EQ(layout.blockOf(1, 7, 7, 0).l2_block, 3u);
    EXPECT_EQ(layout.blockOf(1, 0, 0, 3).l2_block, 0u);
}

TEST(TiledLayout, RectangularTextures)
{
    // 64x16 single level with 16x16 tiles -> 4x1 tiles.
    TiledLayout layout(64, 16, 1, TileSpec{16, 4});
    EXPECT_EQ(layout.totalL2Blocks(), 4u);
    EXPECT_EQ(layout.blockOf(1, 50, 10, 0).l2_block, 3u);
}

// --- Property tests -------------------------------------------------------

struct LayoutParam
{
    uint32_t size;
    uint32_t l2_tile;
    uint32_t l1_tile;
};

class TiledLayoutProperty : public ::testing::TestWithParam<LayoutParam>
{
};

/** Every (x, y, m) maps within range, and distinct L1 tiles within a
 *  level map to distinct (l2_block, l1_sub) pairs. */
TEST_P(TiledLayoutProperty, AddressingIsInjectivePerLevel)
{
    const auto p = GetParam();
    uint32_t levels = log2u(p.size) + 1;
    TiledLayout layout(p.size, p.size, levels, TileSpec{p.l2_tile, p.l1_tile});

    for (uint32_t m = 0; m < levels; ++m) {
        uint32_t dim = std::max(1u, p.size >> m);
        std::set<uint64_t> seen;
        uint32_t tiles = (dim + p.l1_tile - 1) / p.l1_tile;
        for (uint32_t ty = 0; ty < tiles; ++ty) {
            for (uint32_t tx = 0; tx < tiles; ++tx) {
                uint32_t x = std::min(tx * p.l1_tile, dim - 1);
                uint32_t y = std::min(ty * p.l1_tile, dim - 1);
                VirtualBlock b = layout.blockOf(1, x, y, m);
                EXPECT_LT(b.l2_block, layout.totalL2Blocks());
                EXPECT_LT(b.l1_sub, layout.spec().l1PerL2());
                EXPECT_TRUE(seen.insert(packBlock(b)).second)
                    << "duplicate mapping at level " << m << " tile ("
                    << tx << "," << ty << ")";
            }
        }
    }
}

/** Texels within the same L1 tile map to the same block address. */
TEST_P(TiledLayoutProperty, TexelsShareTheirTile)
{
    const auto p = GetParam();
    uint32_t levels = log2u(p.size) + 1;
    TiledLayout layout(p.size, p.size, levels, TileSpec{p.l2_tile, p.l1_tile});
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        uint32_t m = static_cast<uint32_t>(rng.below(levels));
        uint32_t dim = std::max(1u, p.size >> m);
        uint32_t x = static_cast<uint32_t>(rng.below(dim));
        uint32_t y = static_cast<uint32_t>(rng.below(dim));
        uint64_t base = layout.blockKeyOf(1, x, y, m);
        // Tile-aligned representative of the same L1 tile.
        uint32_t ax = (x / p.l1_tile) * p.l1_tile;
        uint32_t ay = (y / p.l1_tile) * p.l1_tile;
        EXPECT_EQ(layout.blockKeyOf(1, ax, ay, m), base);
    }
}

/** Distinct levels never share L2 block numbers. */
TEST_P(TiledLayoutProperty, LevelsDisjoint)
{
    const auto p = GetParam();
    uint32_t levels = log2u(p.size) + 1;
    TiledLayout layout(p.size, p.size, levels, TileSpec{p.l2_tile, p.l1_tile});
    for (uint32_t m = 0; m + 1 < levels; ++m) {
        uint32_t dim = std::max(1u, p.size >> m);
        uint32_t last =
            layout.blockOf(1, dim - 1, dim - 1, m).l2_block;
        uint32_t next_first = layout.blockOf(1, 0, 0, m + 1).l2_block;
        // Lower-resolution levels have smaller block numbers.
        EXPECT_LT(next_first, layout.levelBase(m));
        EXPECT_LT(last, layout.totalL2Blocks());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TiledLayoutProperty,
    ::testing::Values(LayoutParam{64, 8, 4}, LayoutParam{64, 16, 4},
                      LayoutParam{128, 32, 4}, LayoutParam{128, 16, 8},
                      LayoutParam{256, 16, 4}, LayoutParam{256, 32, 8},
                      LayoutParam{512, 8, 8}, LayoutParam{32, 32, 4}),
    [](const ::testing::TestParamInfo<LayoutParam> &param_info) {
        return "s" + std::to_string(param_info.param.size) + "_l2t" +
               std::to_string(param_info.param.l2_tile) + "_l1t" +
               std::to_string(param_info.param.l1_tile);
    });

} // namespace
} // namespace mltc
