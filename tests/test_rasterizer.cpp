/**
 * @file
 * Rasterizer tests: coverage, perspective correctness, LOD selection,
 * clipping, backface culling, two-sided rendering and the z-prepass
 * extension. A screen-filling textured quad gives exact expectations.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "raster/rasterizer.hpp"
#include "texture/procedural.hpp"

namespace mltc {
namespace {

constexpr float kPi = 3.14159265358979f;

/** Sink recording the mip histogram and access count. */
class HistogramSink final : public TexelAccessSink
{
  public:
    void bindTexture(TextureId) override {}

    /** A texel counts one, a quad four; pixel markers count none. */
    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        for (const TexelRef &r : refs) {
            const uint64_t n = r.kind == TexelRef::kTexel  ? 1
                               : r.kind == TexelRef::kQuad ? 4
                                                           : 0;
            total += n;
            if (r.mip < 16)
                by_mip[r.mip] += n;
        }
    }

    uint64_t total = 0;
    uint64_t by_mip[16] = {};
};

class RasterizerTest : public ::testing::Test
{
  protected:
    RasterizerTest() : cam(kPi / 2.0f, 1.0f, 0.5f, 500.0f)
    {
        tex = tm.load("checker",
                      MipPyramid(makeChecker(256, 16, packRgba(255, 0, 0),
                                             packRgba(0, 255, 0))));
    }

    /** Vertical quad centred ahead of the camera filling the screen. */
    void
    addFacingQuad(float distance, float size, float uv_repeat = 1.0f)
    {
        auto quad = std::make_shared<Mesh>(
            makeQuadXY(size, size, uv_repeat, uv_repeat));
        // makeQuadXY faces +Z; place it at -distance so it faces the
        // camera at the origin looking down -Z.
        scene.addObject(quad,
                        Mat4::translate({0.0f, -size * 0.5f, -distance}),
                        tex, "quad");
    }

    TextureManager tm;
    TextureId tex;
    Scene scene;
    Camera cam;
};

TEST_F(RasterizerTest, ScreenFillingQuadTexturesEveryPixel)
{
    // fov 90, distance 10: half-height of frustum = 10, so a 40-size
    // quad overfills the screen.
    addFacingQuad(10.0f, 40.0f);
    cam.lookAt({0, 0, 0}, {0, 0, -1});

    Rasterizer raster(64, 64);
    raster.setFilter(FilterMode::Point);
    HistogramSink sink;
    raster.setSink(&sink);
    FrameStats fs = raster.renderFrame(scene, cam, tm);

    EXPECT_EQ(fs.pixels_textured, 64u * 64u);
    EXPECT_EQ(sink.total, 64u * 64u);
    EXPECT_NEAR(fs.depthComplexity(64, 64), 1.0, 1e-6);
}

TEST_F(RasterizerTest, BackfacingQuadIsCulled)
{
    addFacingQuad(10.0f, 40.0f);
    // Looking from behind the quad (from -20 towards +Z).
    cam.lookAt({0, 0, -20}, {0, 0, 0});
    Rasterizer raster(64, 64);
    HistogramSink sink;
    raster.setSink(&sink);
    FrameStats fs = raster.renderFrame(scene, cam, tm);
    EXPECT_EQ(fs.pixels_textured, 0u);
}

TEST_F(RasterizerTest, TwoSidedQuadVisibleFromBehind)
{
    auto quad = std::make_shared<Mesh>(makeQuadXY(40, 40, 1, 1));
    scene.addObject(quad, Mat4::translate({0.0f, -20.0f, -10.0f}), tex,
                    "ts", /*two_sided=*/true);
    cam.lookAt({0, 0, -20}, {0, 0, 0});
    Rasterizer raster(64, 64);
    HistogramSink sink;
    raster.setSink(&sink);
    FrameStats fs = raster.renderFrame(scene, cam, tm);
    EXPECT_GT(fs.pixels_textured, 0u);
}

TEST_F(RasterizerTest, FilterFootprintScalesAccesses)
{
    addFacingQuad(10.0f, 40.0f);
    cam.lookAt({0, 0, 0}, {0, 0, -1});
    uint64_t counts[3];
    FilterMode modes[3] = {FilterMode::Point, FilterMode::Bilinear,
                           FilterMode::Trilinear};
    for (int i = 0; i < 3; ++i) {
        Rasterizer raster(64, 64);
        raster.setFilter(modes[i]);
        HistogramSink sink;
        raster.setSink(&sink);
        raster.renderFrame(scene, cam, tm);
        counts[i] = sink.total;
    }
    EXPECT_EQ(counts[1], counts[0] * 4); // bilinear = 4x point
    EXPECT_GE(counts[2], counts[1]);     // trilinear >= bilinear
    EXPECT_LE(counts[2], counts[0] * 8); // at most 8x point
}

TEST_F(RasterizerTest, LodIncreasesWithDistance)
{
    // The same quad at 4x the distance covers 1/16 the pixels, so each
    // pixel maps ~4x as many texels per axis: mean mip rises by ~2.
    cam.lookAt({0, 0, 0}, {0, 0, -1});
    auto run = [&](float dist) {
        Scene s;
        auto quad = std::make_shared<Mesh>(makeQuadXY(40, 40, 8, 8));
        s.addObject(quad, Mat4::translate({0.0f, -20.0f, -dist}), tex,
                    "q");
        Rasterizer raster(64, 64);
        raster.setFilter(FilterMode::Point);
        HistogramSink sink;
        raster.setSink(&sink);
        raster.renderFrame(s, cam, tm);
        // Weighted mean mip level.
        double acc = 0;
        for (int m = 0; m < 16; ++m)
            acc += m * static_cast<double>(sink.by_mip[m]);
        return acc / static_cast<double>(sink.total);
    };
    double near_mip = run(10.0f);
    double far_mip = run(40.0f);
    EXPECT_GT(far_mip, near_mip + 1.5);
}

TEST_F(RasterizerTest, PerspectiveCorrectInterpolation)
{
    // A ground plane receding to the horizon: with perspective-correct
    // uv, the checker pattern compresses with distance. Verify the v
    // texel frequency at the bottom (near) differs from mid-screen and
    // that no pixel samples outside the expected wrap range (would show
    // as NaN/garbage accesses; the sink counts mips only, so check the
    // frame completes and covers the lower half of the screen).
    auto ground = std::make_shared<Mesh>(makeQuadXZ(200, 200, 16, 16));
    scene.addObject(ground, Mat4::translate({0, -2, -100}), tex, "g");
    cam.lookAt({0, 0, 0}, {0, -0.05f, -1});
    Rasterizer raster(64, 64);
    raster.setFilter(FilterMode::Point);
    HistogramSink sink;
    raster.setSink(&sink);
    FrameStats fs = raster.renderFrame(scene, cam, tm);
    EXPECT_GT(fs.pixels_textured, 64u * 64u / 4);
    // Receding plane must touch several MIP levels (LOD gradient).
    int levels_touched = 0;
    for (int m = 0; m < 16; ++m)
        if (sink.by_mip[m] > 0)
            ++levels_touched;
    EXPECT_GE(levels_touched, 3);
}

TEST_F(RasterizerTest, NearPlaneClippingKeepsPartialTriangles)
{
    // Quad straddling the camera plane: near clip must keep the front
    // part rather than dropping or exploding.
    auto ground = std::make_shared<Mesh>(makeQuadXZ(4, 200, 1, 16));
    scene.addObject(ground, Mat4::translate({0, -1, 0}), tex, "g");
    cam.lookAt({0, 0, 50}, {0, 0, -100});
    Rasterizer raster(64, 64);
    HistogramSink sink;
    raster.setSink(&sink);
    FrameStats fs = raster.renderFrame(scene, cam, tm);
    EXPECT_GT(fs.pixels_textured, 0u);
    EXPECT_LT(fs.pixels_textured, 64u * 64u); // not the whole screen
}

TEST_F(RasterizerTest, FullyBehindCameraDrawsNothing)
{
    addFacingQuad(10.0f, 40.0f);
    cam.lookAt({0, 0, -50}, {0, 0, -100}); // quad is behind the camera
    Rasterizer raster(64, 64);
    HistogramSink sink;
    raster.setSink(&sink);
    FrameStats fs = raster.renderFrame(scene, cam, tm);
    EXPECT_EQ(fs.pixels_textured, 0u);
}

TEST_F(RasterizerTest, FramebufferDepthTestKeepsNearSurface)
{
    // Red quad near, green-ish checker far: final image shows the near
    // surface though both are textured (texture-before-z).
    TextureId red = tm.load(
        "red", MipPyramid(Image(16, 16, packRgba(255, 0, 0))));
    TextureId blue = tm.load(
        "blue", MipPyramid(Image(16, 16, packRgba(0, 0, 255))));
    auto quad = std::make_shared<Mesh>(makeQuadXY(40, 40, 1, 1));
    Scene s;
    s.addObject(quad, Mat4::translate({0, -20, -20}), blue, "far");
    s.addObject(quad, Mat4::translate({0, -20, -10}), red, "near");
    cam.lookAt({0, 0, 0}, {0, 0, -1});

    Rasterizer raster(32, 32);
    Framebuffer fb(32, 32);
    fb.clear();
    raster.setFramebuffer(&fb);
    raster.setFilter(FilterMode::Point);
    FrameStats fs = raster.renderFrame(s, cam, tm);
    EXPECT_NEAR(fs.depthComplexity(32, 32), 2.0, 0.05);
    EXPECT_EQ(channel(fb.pixel(16, 16), 0), 255); // red wins
    EXPECT_EQ(channel(fb.pixel(16, 16), 2), 0);
}

TEST_F(RasterizerTest, ZPrepassEliminatesOccludedTexturing)
{
    TextureId red = tm.load(
        "red", MipPyramid(Image(16, 16, packRgba(255, 0, 0))));
    auto quad = std::make_shared<Mesh>(makeQuadXY(40, 40, 1, 1));
    Scene s;
    s.addObject(quad, Mat4::translate({0, -20, -20}), tex, "far");
    s.addObject(quad, Mat4::translate({0, -20, -10}), red, "near");
    cam.lookAt({0, 0, 0}, {0, 0, -1});

    Rasterizer raster(32, 32);
    raster.setZPrepass(true);
    HistogramSink sink;
    raster.setSink(&sink);
    FrameStats fs = raster.renderFrame(s, cam, tm);
    // Only the visible (near) surface should be textured: d ~= 1.
    EXPECT_NEAR(fs.depthComplexity(32, 32), 1.0, 0.05);
}

TEST_F(RasterizerTest, StatsCountTriangles)
{
    addFacingQuad(10.0f, 40.0f);
    cam.lookAt({0, 0, 0}, {0, 0, -1});
    Rasterizer raster(64, 64);
    HistogramSink sink;
    raster.setSink(&sink);
    FrameStats fs = raster.renderFrame(scene, cam, tm);
    EXPECT_EQ(fs.objects_visible, 1u);
    EXPECT_EQ(fs.triangles_in, 2u);
    EXPECT_GE(fs.triangles_drawn, 2u); // clipping may fan out more
}

TEST_F(RasterizerTest, RejectsBadDimensions)
{
    EXPECT_THROW(Rasterizer(0, 64), std::invalid_argument);
    EXPECT_THROW(Rasterizer(64, -1), std::invalid_argument);
}

TEST(FramebufferTest, DepthTestSemantics)
{
    Framebuffer fb(4, 4);
    fb.clear(0);
    EXPECT_TRUE(fb.shade(1, 1, 0.5f, 42));
    EXPECT_FALSE(fb.shade(1, 1, 0.9f, 7)); // behind: rejected
    EXPECT_EQ(fb.pixel(1, 1), 42u);
    EXPECT_TRUE(fb.shade(1, 1, 0.1f, 9)); // in front: wins
    EXPECT_EQ(fb.pixel(1, 1), 9u);
    EXPECT_FLOAT_EQ(fb.depth(1, 1), 0.1f);
}

TEST(FramebufferTest, DepthMatchesWithEpsilon)
{
    Framebuffer fb(2, 2);
    fb.clear(0);
    fb.depthOnly(0, 0, 0.5f);
    EXPECT_TRUE(fb.depthMatches(0, 0, 0.5f));
    EXPECT_TRUE(fb.depthMatches(0, 0, 0.500001f));
    EXPECT_FALSE(fb.depthMatches(0, 0, 0.6f));
}

TEST(FramebufferTest, ClearResetsDepthNotSize)
{
    Framebuffer fb(2, 2);
    fb.depthOnly(0, 0, 0.5f);
    fb.clearDepth();
    EXPECT_TRUE(fb.depthMatches(0, 0, 1000.0f));
    EXPECT_EQ(fb.width(), 2);
}

} // namespace
} // namespace mltc
