/**
 * @file
 * Robustness fuzzing for the rasterizer: random triangles, cameras and
 * degenerate geometry must never crash, emit out-of-range accesses or
 * produce non-finite statistics.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "raster/rasterizer.hpp"
#include "texture/procedural.hpp"
#include "util/rng.hpp"

namespace mltc {
namespace {

constexpr float kPi = 3.14159265358979f;

/** Sink asserting every access stays within the bound texture. */
class BoundsCheckSink final : public TexelAccessSink
{
  public:
    explicit BoundsCheckSink(const TextureManager &tm) : tm_(tm) {}

    void bindTexture(TextureId tid) override { tid_ = tid; }

    /** Checks every texel and every quad corner; skips markers. */
    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        for (const TexelRef &r : refs) {
            if (r.kind == TexelRef::kTexel) {
                check(r.x0, r.y0, r.mip);
            } else if (r.kind == TexelRef::kQuad) {
                check(r.x0, r.y0, r.mip);
                check(r.x1, r.y0, r.mip);
                check(r.x0, r.y1, r.mip);
                check(r.x1, r.y1, r.mip);
            }
        }
    }

    uint64_t count = 0;

  private:
    void
    check(uint32_t x, uint32_t y, uint32_t mip)
    {
        const MipPyramid &pyr = tm_.texture(tid_).pyramid;
        ASSERT_LT(mip, pyr.levels());
        ASSERT_LT(x, pyr.level(mip).width());
        ASSERT_LT(y, pyr.level(mip).height());
        ++count;
    }

    const TextureManager &tm_;
    TextureId tid_ = 0;
};

class RasterFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RasterFuzz, RandomTrianglesNeverMisbehave)
{
    TextureManager tm;
    TextureId tex = tm.load(
        "t", MipPyramid(makeChecker(64, 4, 0xff112233u, 0xffccddeeu)));

    Rng rng(GetParam());
    Scene scene;
    for (int i = 0; i < 40; ++i) {
        Mesh m;
        for (int v = 0; v < 3; ++v)
            m.vertices.push_back(
                {{rng.uniformf(-100, 100), rng.uniformf(-100, 100),
                  rng.uniformf(-100, 100)},
                 {rng.uniformf(-4, 4), rng.uniformf(-4, 4)}});
        m.indices = {0, 1, 2};
        scene.addObject(std::make_shared<Mesh>(std::move(m)),
                        Mat4::identity(), tex,
                        "tri" + std::to_string(i), rng.chance(0.5));
    }
    // Degenerate geometry: zero-area triangle, duplicate vertices.
    Mesh degen;
    degen.vertices = {{{0, 0, -5}, {0, 0}},
                      {{0, 0, -5}, {1, 0}},
                      {{0, 0, -5}, {0, 1}}};
    degen.indices = {0, 1, 2};
    scene.addObject(std::make_shared<Mesh>(std::move(degen)),
                    Mat4::identity(), tex, "degenerate");

    BoundsCheckSink sink(tm);
    Rasterizer raster(48, 48);
    raster.setSink(&sink);
    FilterMode modes[] = {FilterMode::Point, FilterMode::Bilinear,
                          FilterMode::Trilinear};
    raster.setFilter(modes[GetParam() % 3]);

    for (int f = 0; f < 6; ++f) {
        Camera cam(kPi / 3.0f, 1.0f, 0.25f, 300.0f);
        Vec3 eye{rng.uniformf(-50, 50), rng.uniformf(-50, 50),
                 rng.uniformf(-50, 50)};
        Vec3 tgt{rng.uniformf(-50, 50), rng.uniformf(-50, 50),
                 rng.uniformf(-50, 50)};
        cam.lookAt(eye, tgt);
        FrameStats fs = raster.renderFrame(scene, cam, tm);
        // Stats must be finite and internally consistent.
        ASSERT_LE(fs.pixels_textured, 48ull * 48ull * 82ull);
        ASSERT_LE(fs.triangles_drawn, fs.triangles_in * 8);
        ASSERT_EQ(fs.objects_visible <= scene.objects().size(), true);
    }
    SUCCEED();
}

TEST_P(RasterFuzz, CameraInsideGeometryIsSafe)
{
    TextureManager tm;
    TextureId tex = tm.load("t", MipPyramid(Image(32, 32, 0xffffffffu)));
    Scene scene;
    auto box = std::make_shared<Mesh>(makeBox(10, 10, 10, 0.5f));
    scene.addObject(box, Mat4::identity(), tex, "box");

    Rng rng(GetParam() ^ 0xabcdeull);
    Rasterizer raster(32, 32);
    BoundsCheckSink sink(tm);
    raster.setSink(&sink);
    for (int f = 0; f < 10; ++f) {
        Camera cam(kPi / 2.0f, 1.0f, 0.1f, 100.0f);
        // Camera inside and around the box, including right at faces.
        cam.lookAt({rng.uniformf(-6, 6), rng.uniformf(0, 10),
                    rng.uniformf(-6, 6)},
                   {rng.uniformf(-6, 6), rng.uniformf(0, 10),
                    rng.uniformf(-6, 6)});
        raster.renderFrame(scene, cam, tm);
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RasterFuzz,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull,
                                           55ull, 66ull));

} // namespace
} // namespace mltc
