/**
 * @file
 * Differential for the texture producer (raster/span_kernel.hpp).
 *
 *  - Per-frame hashes of the emitted access stream (every bind, pixel
 *    marker and footprint, in order) at the paper configuration,
 *    1024x768, for Village and City under every filter, plus the shaded
 *    framebuffer of one run and the stream of one z-prepass run. The
 *    expected values are the outputs of the per-pixel producer the span
 *    producer replaced; any change to the stream changes a hash.
 *  - The span kernel, called directly on fuzzed spans, must emit what
 *    sample() emits at lambda = lodLambda(rho2).
 *  - The LOD threshold table against the level expressions at every
 *    threshold and on sampled floats (test_lod_exhaustive.cpp sweeps
 *    every float).
 */
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <limits>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "raster/rasterizer.hpp"
#include "util/rng.hpp"
#include "workload/city.hpp"
#include "workload/village.hpp"

namespace mltc {
namespace {

constexpr int kWidth = 1024;
constexpr int kHeight = 768;
constexpr int kFrames = 12;

/** Word-wise multiply-xor hash of everything a sink receives. */
class HashSink final : public TexelAccessSink
{
  public:
    void
    bindTexture(TextureId tid) override
    {
        mix(0xB1Du);
        mix(tid);
    }

    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        for (const TexelRef &r : refs) {
            mix(r.x0);
            mix(r.y0);
            mix(r.x1);
            mix(r.y1);
            mix(static_cast<uint32_t>(r.mip) | (uint32_t{r.kind} << 16));
        }
        refs_ += refs.size();
    }

    /** The hash so far, and reset for the next frame. */
    uint64_t
    take()
    {
        const uint64_t out = h_ ^ refs_;
        h_ = kSeed;
        refs_ = 0;
        return out;
    }

  private:
    static constexpr uint64_t kSeed = 0xcbf29ce484222325ull;

    void
    mix(uint32_t word)
    {
        h_ = (h_ ^ word) * 0x100000001b3ull;
        h_ ^= h_ >> 29;
    }

    uint64_t h_ = kSeed;
    uint64_t refs_ = 0;
};

const Workload &
workload(const std::string &name)
{
    static const Workload village = buildVillage();
    static const Workload city = buildCity();
    return name == "city" ? city : village;
}

/** Frames spread evenly over the whole animation. */
int
frameAt(const Workload &wl, int i)
{
    return i * wl.default_frames / kFrames;
}

uint64_t
framebufferHash(const Framebuffer &fb)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint32_t c : fb.colors())
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

std::string
hashList(const std::vector<uint64_t> &hashes)
{
    std::string out;
    for (uint64_t h : hashes) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull, ", h);
        out += buf;
    }
    return out;
}

struct StreamCase
{
    const char *workload;
    FilterMode filter;
    uint64_t expected[kFrames];
};

// Per-frame stream hashes of the per-pixel producer (frames 0, 1/12,
// ..., 11/12 of each animation).
const StreamCase kStreamCases[] = {
    {"village", FilterMode::Point,
     {0xb0a067a6eefe285eull, 0x80e6042593978ff8ull,
      0x3d1389126206f2caull, 0x1116c6de0b292653ull,
      0x17d7f16bc175f99full, 0xbed8b956c1acaaecull,
      0xf4724289ea1fb737ull, 0x88bba3cab7863dddull,
      0x83711db77addc36cull, 0xe003c97bf273b225ull,
      0xe13fbc3e4d0e47bbull, 0xee4698110aaff992ull}},
    {"village", FilterMode::Bilinear,
     {0x6972e2db1bd9ecd4ull, 0x34d613af2786d0f3ull,
      0xfbe36d3b39169110ull, 0x369ecf95ae09d9bfull,
      0xa209323fe1f76fcaull, 0x759d32ab5acbf246ull,
      0x5cae8da97be16f84ull, 0x71d739a3ea5415fdull,
      0x07a598c7cff64c96ull, 0xefd56d1b3cbaf5a2ull,
      0x2d14c966920c4b91ull, 0x4092fe6fbf90fc76ull}},
    {"village", FilterMode::Trilinear,
     {0x2834cc3508a5c938ull, 0x7627f41f3f3e3fe9ull,
      0x669003dae2900df9ull, 0x7de8b8fbdd3f8535ull,
      0xf57bf17dfe7a8d5dull, 0x11d6d8a0adfb82f4ull,
      0xb4afc05034c7a8dcull, 0x4e5db5a9f51f47d2ull,
      0xc06c74fb36b59eaaull, 0x543f2dcfa7ac7f93ull,
      0x2babab4fd4467fadull, 0x382a2934b6ca546bull}},
    {"city", FilterMode::Point,
     {0x94ff8cc279cea5a5ull, 0xc7ec94ad62770830ull,
      0x9fdd5f520f98a790ull, 0xcfb8e348916a750cull,
      0x6fcd44cdbd724addull, 0x1471b9dffb39fa0full,
      0x894dec7083fc0e1eull, 0xd3cfa122e5eb0ceaull,
      0x0d2ed976e6638cd0ull, 0x9ec6f900a4e550f2ull,
      0xadc00cb8d566140full, 0x31e415a11fde4ff4ull}},
    {"city", FilterMode::Bilinear,
     {0x2feea32e7bf703efull, 0xeb80a5b40ab8c94cull,
      0xa4b54d4590d94146ull, 0xd2559431e9534862ull,
      0x78df27556a0c228aull, 0xe30d4cc14117d4fdull,
      0x457e7f7596f0ad1bull, 0x8aef1e26f5d131e5ull,
      0xc27e16cc4f6290efull, 0x1e7d747bdec1fb47ull,
      0x3b547cf12c53e4ecull, 0x3dde801d99c8a406ull}},
    {"city", FilterMode::Trilinear,
     {0x402ca39212fb0c5dull, 0x4bea7bbdc18ced78ull,
      0x28089951fae4ef6eull, 0x08d37802e91928e1ull,
      0x0f6a6abe36fc9b3full, 0xa6d73a5fe9160460ull,
      0x135d0ba7c66f98afull, 0x813811535fad6f0bull,
      0x286d71856e9c4d03ull, 0x430b9d18b8a17b85ull,
      0xb3d5414cf350de1full, 0x6bc51fe939d9860bull}},
};

/** Names the case in test listings ("village/trilinear"). */
void
PrintTo(const StreamCase &c, std::ostream *os)
{
    *os << c.workload << "/" << filterModeName(c.filter);
}

class SpanProducerDifferential
    : public ::testing::TestWithParam<StreamCase>
{
};

TEST_P(SpanProducerDifferential, StreamHashesMatchPerPixelProducer)
{
    const StreamCase &c = GetParam();
    const Workload &wl = workload(c.workload);
    Rasterizer raster(kWidth, kHeight);
    HashSink sink;
    raster.setFilter(c.filter);
    raster.setSink(&sink);
    std::vector<uint64_t> got;
    for (int i = 0; i < kFrames; ++i) {
        const Camera cam = wl.cameraAtFrame(
            frameAt(wl, i), wl.default_frames,
            static_cast<float>(kWidth) / kHeight);
        raster.renderFrame(wl.scene, cam, *wl.textures);
        got.push_back(sink.take());
    }
    const std::vector<uint64_t> want(c.expected, c.expected + kFrames);
    EXPECT_EQ(got, want) << "got: " << hashList(got);
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfig, SpanProducerDifferential, ::testing::ValuesIn(kStreamCases),
    [](const ::testing::TestParamInfo<StreamCase> &param) {
        return std::string(param.param.workload) + "_" +
               filterModeName(param.param.filter);
    });

// A shaded trilinear run exercises the blend weight, the only place the
// span producer still evaluates log2; a z-prepass run exercises the
// depth filter in front of the texture fetch.
TEST(SpanProducerShaded, FramebufferAndStreamMatchPerPixelProducer)
{
    const Workload &wl = workload("village");
    Rasterizer raster(kWidth, kHeight);
    Framebuffer fb(kWidth, kHeight);
    HashSink sink;
    raster.setFilter(FilterMode::Trilinear);
    raster.setSink(&sink);
    raster.setFramebuffer(&fb);
    std::vector<uint64_t> got;
    for (int i = 0; i < kFrames; i += 4) {
        fb.clear(0);
        const Camera cam = wl.cameraAtFrame(
            frameAt(wl, i), wl.default_frames,
            static_cast<float>(kWidth) / kHeight);
        raster.renderFrame(wl.scene, cam, *wl.textures);
        got.push_back(sink.take());
        got.push_back(framebufferHash(fb));
    }
    const std::vector<uint64_t> want = {
        0x2834cc3508a5c938ull, 0x8c23e7c5942bd7cbull, 0xf57bf17dfe7a8d5dull,
        0x7ec5a04ac16f929eull, 0xc06c74fb36b59eaaull, 0x527c61a459785f51ull};
    EXPECT_EQ(got, want) << "got: " << hashList(got);
}

TEST(SpanProducerPrepass, StreamMatchesPerPixelProducer)
{
    const Workload &wl = workload("city");
    Rasterizer raster(kWidth, kHeight);
    HashSink sink;
    raster.setFilter(FilterMode::Bilinear);
    raster.setSink(&sink);
    raster.setZPrepass(true);
    std::vector<uint64_t> got;
    for (int i = 0; i < kFrames; i += 4) {
        const Camera cam = wl.cameraAtFrame(
            frameAt(wl, i), wl.default_frames,
            static_cast<float>(kWidth) / kHeight);
        raster.renderFrame(wl.scene, cam, *wl.textures);
        got.push_back(sink.take());
    }
    const std::vector<uint64_t> want = {
        0xc844614d08a2f110ull, 0xb045fc05a6ae3490ull, 0x62c4e7a181059dccull};
    EXPECT_EQ(got, want) << "got: " << hashList(got);
}

// ---------------------------------------------------------------------------
// LOD thresholds

float
previousFloat(float x)
{
    return std::nextafter(x, -std::numeric_limits<float>::infinity());
}

TEST(LodThresholds, EachIsTheFirstFloatOfItsLevel)
{
    const LodThresholds &t = lodThresholds();
    const float *nearest = t.nearest.threshold;
    const float *floor = t.floor.threshold;
    for (uint32_t k = 1; k < kMaxLodLevels; ++k) {
        const float level = static_cast<float>(k);
        EXPECT_GE(std::floor(lodLambda(nearest[k]) + 0.5f), level) << k;
        EXPECT_LT(std::floor(lodLambda(previousFloat(nearest[k])) + 0.5f),
                  level)
            << k;
        EXPECT_GE(lodLambda(floor[k]), level) << k;
        EXPECT_LT(lodLambda(previousFloat(floor[k])), level) << k;
        EXPECT_LE(nearest[k - 1], nearest[k]);
        EXPECT_LE(floor[k - 1], floor[k]);
    }
    EXPECT_GT(lodLambda(t.blend), 0.0f);
    EXPECT_LE(lodLambda(previousFloat(t.blend)), 0.0f);
    EXPECT_LE(t.blend, floor[1]);
    // Each threshold sits within a few ulps of its power of two:
    // lambda = k at rho2 = 4^k, k + 0.5 at 2 * 4^k (with this libm,
    // the nearest level 9 starts at 0x1.ffffeap+16, not at 2^17).
    for (uint32_t k = 1; k < kMaxLodLevels; ++k) {
        const float floor_at = std::ldexp(1.0f, static_cast<int>(2 * k));
        const float nearest_at = floor_at / 2.0f;
        EXPECT_NEAR(floor[k], floor_at, floor_at * 0x1p-16f) << k;
        EXPECT_NEAR(nearest[k], nearest_at, nearest_at * 0x1p-16f) << k;
    }
}

/** levelAt() over the tables against the lambda expressions. */
void
expectSameLevels(float rho2, uint32_t max_level)
{
    const LodThresholds &t = lodThresholds();
    const float lambda = lodLambda(rho2);
    EXPECT_EQ(levelAt(t.nearest, max_level, rho2),
              nearestLevel(lambda, max_level))
        << rho2 << " max " << max_level;
    const TrilinearLevels tri = trilinearLevels(lambda, max_level);
    const uint32_t m0 = levelAt(t.floor, max_level, rho2);
    EXPECT_EQ(m0, tri.m0) << rho2 << " max " << max_level;
    EXPECT_EQ(rho2 >= t.blend && m0 < max_level, tri.blend)
        << rho2 << " max " << max_level;
}

TEST(LodThresholds, AgreeWithTheExpressions)
{
    const LodThresholds &t = lodThresholds();
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> probes = {
        0.0f, -0.0f, -1.0f, -inf, inf, std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::min(), std::numeric_limits<float>::max(),
        1.0f, 1e10f, 1e30f};
    for (uint32_t k = 1; k < kMaxLodLevels; ++k) {
        for (float edge : {t.nearest.threshold[k], t.floor.threshold[k]}) {
            probes.push_back(edge);
            probes.push_back(previousFloat(edge));
            probes.push_back(std::nextafter(edge, inf));
        }
    }
    probes.push_back(t.blend);
    probes.push_back(previousFloat(t.blend));
    Rng rng(11);
    for (int i = 0; i < 200000; ++i)
        probes.push_back(std::bit_cast<float>(
            static_cast<uint32_t>(rng.below(0x7f800001u))));
    for (uint32_t max_level : {0u, 1u, 6u, 10u, 15u, 31u})
        for (float rho2 : probes)
            expectSameLevels(rho2, max_level);
}

// ---------------------------------------------------------------------------
// Span kernel

/** One fuzzed span with its inputs and outputs. */
struct FuzzSpan
{
    explicit FuzzSpan(uint32_t n) : scratch(n) {}

    SpanScratch scratch;
    TexSpan span;
};

/**
 * A span of @p n pixels: a random plane for 1/w, u/w, v/w stepped
 * serially like the rasterizer, at a random scale so the LOD runs from
 * deep magnification to the coarsest level; some pixels get 1/w <= 0 or
 * NaN, and half the spans a keep mask.
 */
void
fillSpan(Rng &rng, uint32_t n, FuzzSpan &f)
{
    SpanScratch &a = f.scratch;
    TexSpan &s = f.span;
    const float scale = std::ldexp(1.0f, static_cast<int>(rng.below(40)) - 20);
    s.x = static_cast<uint32_t>(rng.below(64));
    s.y = static_cast<uint32_t>(rng.below(768));
    s.n = n;
    s.wx = rng.uniformf(-1e-3f, 1e-3f);
    s.wy = rng.uniformf(-1e-3f, 1e-3f);
    s.ux = rng.uniformf(-1.0f, 1.0f) * scale;
    s.uy = rng.uniformf(-1.0f, 1.0f) * scale;
    s.vx = rng.uniformf(-1.0f, 1.0f) * scale;
    s.vy = rng.uniformf(-1.0f, 1.0f) * scale;
    float W = rng.uniformf(1e-4f, 1.0f);
    float U = rng.uniformf(-4.0f, 4.0f);
    float V = rng.uniformf(-4.0f, 4.0f);
    for (uint32_t k = 0; k < n; ++k, W += s.wx, U += s.ux, V += s.vx) {
        a.w[k] = W;
        a.u[k] = U;
        a.v[k] = V;
        const uint64_t odd = rng.below(64);
        if (odd == 0)
            a.w[k] = -W;
        else if (odd == 1)
            a.w[k] = std::numeric_limits<float>::quiet_NaN();
        else if (odd == 2)
            a.w[k] = 0.0f;
        a.keep[k] = rng.below(4) != 0;
    }
    s.w = a.w.data();
    s.u = a.u.data();
    s.v = a.v.data();
    s.keep = rng.below(2) ? a.keep.data() : nullptr;
    s.tu = a.tu.data();
    s.tv = a.tv.data();
    s.rho2 = a.rho2.data();
}

/** Sink keeping every ref, for comparing emitted streams. */
class KeepSink final : public TexelAccessSink
{
  public:
    void bindTexture(TextureId) override {}

    void
    accessBatch(std::span<const TexelRef> batch) override
    {
        refs.insert(refs.end(), batch.begin(), batch.end());
    }

    std::vector<TexelRef> refs;
};

bool
sameRef(const TexelRef &a, const TexelRef &b)
{
    return a.x0 == b.x0 && a.y0 == b.y0 && a.x1 == b.x1 && a.y1 == b.y1 &&
           a.mip == b.mip && a.kind == b.kind;
}

class SpanKernelTest : public ::testing::Test
{
  protected:
    SpanKernelTest()
    {
        // 9 levels; non-square down to 1 row; 1x1 (one level); 16
        // and 17 levels.
        for (auto [w, h] : {std::pair<uint32_t, uint32_t>{256, 256},
                            {64, 16},
                            {1, 1},
                            {32768, 1},
                            {65536, 1}})
            pyramids.emplace_back(Image(w, h, 0xff00ff00u));
    }

    std::vector<MipPyramid> pyramids;
};

TEST_F(SpanKernelTest, MatchesSampleAtTheSameLambda)
{
    TextureManager tm;
    std::vector<TextureId> ids;
    for (const MipPyramid &pyramid : pyramids)
        ids.push_back(tm.load("t" + std::to_string(ids.size()), pyramid));
    Rng rng(9);
    std::vector<TexelRef> out(3 * 64);
    for (TextureId id : ids) {
        for (FilterMode filter : {FilterMode::Point, FilterMode::Bilinear,
                                  FilterMode::Trilinear}) {
            const SpanTexture tex(tm.texture(id).pyramid, filter);
            KeepSink sink;
            TextureSampler sampler;
            sampler.setSink(&sink);
            sampler.setFilter(filter);
            sampler.bind(tm.texture(id));
            for (int trial = 0; trial < 200; ++trial) {
                const uint32_t n = 1 + static_cast<uint32_t>(rng.below(40));
                FuzzSpan f(n);
                fillSpan(rng, n, f);
                const SpanEmit e = spanKernel(f.span, tex, out.data());
                // Replay each textured pixel through sample(): the same
                // footprint, after its marker.
                sink.refs.clear();
                for (uint32_t k = 0; k < n; ++k) {
                    if (!spanKeeps(f.span, k))
                        continue;
                    sink.refs.push_back(
                        TexelRef::pixel(f.span.x + k, f.span.y));
                    sampler.flushBatch();
                    sampler.sample(f.scratch.tu[k], f.scratch.tv[k],
                                   lodLambda(f.scratch.rho2[k]));
                    sampler.flushBatch();
                }
                ASSERT_EQ(sink.refs.size(),
                          static_cast<size_t>(e.end - out.data()));
                for (size_t i = 0; i < sink.refs.size(); ++i)
                    ASSERT_TRUE(sameRef(sink.refs[i], out[i]))
                        << "ref " << i << " trial " << trial;
            }
        }
    }
}

} // namespace
} // namespace mltc
