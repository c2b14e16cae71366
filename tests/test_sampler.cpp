/**
 * @file
 * Unit tests for the texture sampler: footprint sizes per filter mode,
 * MIP level selection from lambda, wrap behaviour and filtered colors.
 */
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "raster/sampler.hpp"
#include "texture/procedural.hpp"

namespace mltc {
namespace {

/** Sink recording every access. */
class RecordingSink final : public TexelAccessSink
{
  public:
    void bindTexture(TextureId bound) override { tid = bound; }

    /** A quad records its four texels; pixel markers are skipped. */
    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        for (const TexelRef &r : refs) {
            if (r.kind == TexelRef::kTexel) {
                records.push_back({r.x0, r.y0, r.mip});
            } else if (r.kind == TexelRef::kQuad) {
                records.push_back({r.x0, r.y0, r.mip});
                records.push_back({r.x1, r.y0, r.mip});
                records.push_back({r.x0, r.y1, r.mip});
                records.push_back({r.x1, r.y1, r.mip});
            }
        }
    }

    struct Rec
    {
        uint32_t x, y, mip;
    };
    std::vector<Rec> records;
    TextureId tid = 0;
};

class SamplerTest : public ::testing::Test
{
  protected:
    SamplerTest()
    {
        tid = tm.load("checker",
                      MipPyramid(makeChecker(64, 8, packRgba(0, 0, 0),
                                             packRgba(255, 255, 255))));
        sampler.setSink(&sink);
        sampler.bind(tm.texture(tid));
    }

    /** The sink's records once the sampler's buffered span is delivered. */
    const std::vector<RecordingSink::Rec> &
    records()
    {
        sampler.flushBatch();
        return sink.records;
    }

    TextureManager tm;
    TextureId tid;
    RecordingSink sink;
    TextureSampler sampler;
};

TEST_F(SamplerTest, BindNotifiesSink)
{
    EXPECT_EQ(sink.tid, tid);
}

TEST_F(SamplerTest, PointEmitsOneAccess)
{
    sampler.setFilter(FilterMode::Point);
    sampler.sample(0.5f, 0.5f, 0.0f);
    ASSERT_EQ(records().size(), 1u);
    EXPECT_EQ(records()[0].x, 32u);
    EXPECT_EQ(records()[0].y, 32u);
    EXPECT_EQ(records()[0].mip, 0u);
    EXPECT_EQ(sampler.accessCount(), 1u);
}

TEST_F(SamplerTest, BilinearEmitsFourNeighbours)
{
    sampler.setFilter(FilterMode::Bilinear);
    sampler.sample(0.25f, 0.25f, 0.0f);
    ASSERT_EQ(records().size(), 4u);
    // All four accesses at level 0, forming a 2x2 quad.
    uint32_t minx = ~0u, maxx = 0, miny = ~0u, maxy = 0;
    for (const auto &r : records()) {
        EXPECT_EQ(r.mip, 0u);
        minx = std::min(minx, r.x);
        maxx = std::max(maxx, r.x);
        miny = std::min(miny, r.y);
        maxy = std::max(maxy, r.y);
    }
    EXPECT_EQ(maxx - minx, 1u);
    EXPECT_EQ(maxy - miny, 1u);
}

TEST_F(SamplerTest, TrilinearEmitsEightAcrossTwoLevels)
{
    sampler.setFilter(FilterMode::Trilinear);
    sampler.sample(0.5f, 0.5f, 1.5f);
    ASSERT_EQ(records().size(), 8u);
    int level1 = 0, level2 = 0;
    for (const auto &r : records()) {
        if (r.mip == 1)
            ++level1;
        else if (r.mip == 2)
            ++level2;
    }
    EXPECT_EQ(level1, 4);
    EXPECT_EQ(level2, 4);
}

TEST_F(SamplerTest, TrilinearMagnificationDegeneratesToBilinear)
{
    sampler.setFilter(FilterMode::Trilinear);
    sampler.sample(0.5f, 0.5f, -2.0f);
    EXPECT_EQ(records().size(), 4u);
    for (const auto &r : records())
        EXPECT_EQ(r.mip, 0u);
}

TEST_F(SamplerTest, TrilinearClampsAtCoarsestLevel)
{
    sampler.setFilter(FilterMode::Trilinear);
    sampler.sample(0.5f, 0.5f, 100.0f);
    // Both probe levels clamp to the 1x1 top: a single bilinear probe.
    EXPECT_EQ(records().size(), 4u);
    for (const auto &r : records())
        EXPECT_EQ(r.mip, 6u); // 64x64 -> levels 0..6
}

TEST_F(SamplerTest, PointRoundsLambda)
{
    sampler.setFilter(FilterMode::Point);
    sampler.sample(0.0f, 0.0f, 0.4f);
    sampler.sample(0.0f, 0.0f, 0.6f);
    ASSERT_EQ(records().size(), 2u);
    EXPECT_EQ(records()[0].mip, 0u);
    EXPECT_EQ(records()[1].mip, 1u);
}

TEST_F(SamplerTest, NegativeLambdaClampsToBase)
{
    sampler.setFilter(FilterMode::Point);
    sampler.sample(0.1f, 0.1f, -5.0f);
    EXPECT_EQ(records()[0].mip, 0u);
}

// Out-of-range LODs clamp before the level cast: +inf (and any huge
// finite lambda) picks the coarsest level, NaN behaves like lambda <= 0.
TEST_F(SamplerTest, InfiniteLambdaPicksCoarsestLevel)
{
    const float inf = std::numeric_limits<float>::infinity();
    for (FilterMode mode : {FilterMode::Point, FilterMode::Bilinear,
                            FilterMode::Trilinear}) {
        sampler.setFilter(mode);
        sampler.sample(0.5f, 0.5f, inf);
        sampler.sample(0.5f, 0.5f, 1e10f);
    }
    // Point: 1 + 1; bilinear: 4 + 4; trilinear, both levels clamped to
    // one probe: 4 + 4.
    ASSERT_EQ(records().size(), 18u);
    for (const auto &r : records())
        EXPECT_EQ(r.mip, 6u);
}

TEST_F(SamplerTest, NanLambdaBehavesLikeMagnification)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    sampler.setFilter(FilterMode::Point);
    sampler.sample(0.5f, 0.5f, nan);
    sampler.setFilter(FilterMode::Bilinear);
    sampler.sample(0.5f, 0.5f, nan);
    sampler.setFilter(FilterMode::Trilinear);
    sampler.sample(0.5f, 0.5f, nan); // one bilinear probe of the base
    ASSERT_EQ(records().size(), 9u);
    for (const auto &r : records())
        EXPECT_EQ(r.mip, 0u);
}

TEST_F(SamplerTest, UvWrapsOutsideUnitSquare)
{
    sampler.setFilter(FilterMode::Point);
    sampler.sample(1.25f, -0.75f, 0.0f);
    ASSERT_EQ(records().size(), 1u);
    EXPECT_EQ(records()[0].x, 16u); // 1.25 * 64 = 80 -> wraps to 16
    EXPECT_EQ(records()[0].y, 16u); // -0.75 * 64 = -48 -> wraps to 16
}

TEST_F(SamplerTest, ShadingOffReturnsZero)
{
    sampler.setFilter(FilterMode::Bilinear);
    sampler.setShading(false);
    EXPECT_EQ(sampler.sample(0.3f, 0.3f, 0.0f), 0u);
}

TEST_F(SamplerTest, ShadedPointReturnsTexelColor)
{
    sampler.setFilter(FilterMode::Point);
    sampler.setShading(true);
    // Checker cell (0,0) is black (color_a).
    uint32_t c = sampler.sample(0.01f, 0.01f, 0.0f);
    EXPECT_EQ(channel(c, 0), 0);
    // Cell (1,0) is white.
    c = sampler.sample(0.14f, 0.01f, 0.0f); // texel ~9 -> cell 1
    EXPECT_EQ(channel(c, 0), 255);
}

TEST_F(SamplerTest, BilinearBlendsAcrossEdge)
{
    sampler.setFilter(FilterMode::Bilinear);
    sampler.setShading(true);
    // Sample exactly on the black/white cell boundary at x = 8 texels:
    // u = 8/64 = 0.125 puts the footprint half in each cell.
    uint32_t c = sampler.sample(0.125f, 0.05f, 0.0f);
    int r = channel(c, 0);
    EXPECT_GT(r, 64);
    EXPECT_LT(r, 192);
}

TEST_F(SamplerTest, NullSinkStillCounts)
{
    sampler.setSink(nullptr);
    sampler.setFilter(FilterMode::Bilinear);
    uint64_t before = sampler.accessCount();
    sampler.sample(0.5f, 0.5f, 0.0f);
    EXPECT_EQ(sampler.accessCount(), before + 4);
}

TEST(FilterModeName, Names)
{
    EXPECT_STREQ(filterModeName(FilterMode::Point), "point");
    EXPECT_STREQ(filterModeName(FilterMode::Bilinear), "bilinear");
    EXPECT_STREQ(filterModeName(FilterMode::Trilinear), "trilinear");
}

} // namespace
} // namespace mltc
