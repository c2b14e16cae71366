/**
 * @file
 * Parameterized property tests over the rasterizer: invariants that
 * must hold for every filter mode and resolution.
 */
#include <gtest/gtest.h>

#include "raster/rasterizer.hpp"
#include "texture/procedural.hpp"

namespace mltc {
namespace {

constexpr float kPi = 3.14159265358979f;

struct RasterCase
{
    FilterMode filter;
    int width;
    int height;
};

class RasterProperty : public ::testing::TestWithParam<RasterCase>
{
  protected:
    RasterProperty() : cam(kPi / 2.0f, 1.0f, 0.5f, 500.0f)
    {
        tex = tm.load("t", MipPyramid(makeChecker(128, 8, 0xff202020u,
                                                  0xffe0e0e0u)));
        auto quad = std::make_shared<Mesh>(makeQuadXY(40, 40, 4, 4));
        scene.addObject(quad, Mat4::translate({0, -20, -10}), tex, "q");
        cam.lookAt({0, 0, 0}, {0, 0, -1});
    }

    TextureManager tm;
    TextureId tex;
    Scene scene;
    Camera cam;
};

/** Coverage is filter-independent: same pixels textured regardless. */
TEST_P(RasterProperty, CoverageIndependentOfFilter)
{
    const auto p = GetParam();
    Rasterizer raster(p.width, p.height);
    raster.setFilter(p.filter);
    CountingSink sink;
    raster.setSink(&sink);
    FrameStats fs = raster.renderFrame(scene, cam, tm);
    // The quad overfills the screen at fov90/distance10.
    EXPECT_EQ(fs.pixels_textured,
              static_cast<uint64_t>(p.width) *
                  static_cast<uint64_t>(p.height));
}

/** Access count per pixel is bounded by the filter footprint. */
TEST_P(RasterProperty, AccessesPerPixelBounded)
{
    const auto p = GetParam();
    Rasterizer raster(p.width, p.height);
    raster.setFilter(p.filter);
    CountingSink sink;
    raster.setSink(&sink);
    FrameStats fs = raster.renderFrame(scene, cam, tm);
    uint64_t max_per_pixel = p.filter == FilterMode::Point      ? 1
                             : p.filter == FilterMode::Bilinear ? 4
                                                                : 8;
    EXPECT_LE(sink.count, fs.pixels_textured * max_per_pixel);
    EXPECT_GE(sink.count, fs.pixels_textured); // at least 1 per pixel
    EXPECT_EQ(sink.count, fs.texel_accesses);
}

/** Rendering twice is deterministic. */
TEST_P(RasterProperty, Deterministic)
{
    const auto p = GetParam();
    uint64_t counts[2];
    for (int i = 0; i < 2; ++i) {
        Rasterizer raster(p.width, p.height);
        raster.setFilter(p.filter);
        CountingSink sink;
        raster.setSink(&sink);
        raster.renderFrame(scene, cam, tm);
        counts[i] = sink.count;
    }
    EXPECT_EQ(counts[0], counts[1]);
}

/** A shrunken viewport never *increases* work. */
TEST_P(RasterProperty, WorkScalesWithResolution)
{
    const auto p = GetParam();
    Rasterizer big(p.width, p.height);
    Rasterizer small(p.width / 2, p.height / 2);
    big.setFilter(p.filter);
    small.setFilter(p.filter);
    CountingSink s1, s2;
    big.setSink(&s1);
    small.setSink(&s2);
    big.renderFrame(scene, cam, tm);
    small.renderFrame(scene, cam, tm);
    EXPECT_LT(s2.count, s1.count);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RasterProperty,
    ::testing::Values(RasterCase{FilterMode::Point, 64, 64},
                      RasterCase{FilterMode::Bilinear, 64, 64},
                      RasterCase{FilterMode::Trilinear, 64, 64},
                      RasterCase{FilterMode::Point, 96, 48},
                      RasterCase{FilterMode::Trilinear, 96, 48}),
    [](const ::testing::TestParamInfo<RasterCase> &param_info) {
        return std::string(filterModeName(param_info.param.filter)) + "_" +
               std::to_string(param_info.param.width) + "x" +
               std::to_string(param_info.param.height);
    });

} // namespace
} // namespace mltc
