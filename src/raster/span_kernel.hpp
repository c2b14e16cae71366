/**
 * @file
 * The texture pass's span producer: for one scanline span it computes
 * every pixel's texel coordinates, screen-space derivatives, LOD and
 * filter footprint, and writes the pixel marker and footprint
 * TexelRefs straight into the caller's batch in pixel order.
 *
 * The LOD is picked by compares against per-level rho2 thresholds (see
 * LodThresholds): rho2 = max(|d(s,t)/dx|^2, |d(s,t)/dy|^2) in base-level
 * texels, and lambda = 0.5*log2(rho2). log2 runs only where shading
 * needs the trilinear blend weight.
 */
#ifndef MLTC_RASTER_SPAN_KERNEL_HPP
#define MLTC_RASTER_SPAN_KERNEL_HPP

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "raster/access_sink.hpp"
#include "texture/mip_pyramid.hpp"

namespace mltc {

/** Texture filtering mode. */
enum class FilterMode { Point, Bilinear, Trilinear };

/** MIP levels a threshold table covers (a 2^31-texel side has 32). */
constexpr uint32_t kMaxLodLevels = 32;

/**
 * The per-pixel LOD, lambda = log2(sqrt(rho2)) = 0.5*log2(rho2), and
 * -16 when rho2 is not positive (or NaN). This expression defines the
 * level choice; the thresholds below reproduce it without log2.
 */
inline float
lodLambda(float rho2)
{
    return rho2 > 0.0f ? 0.5f * std::log2(rho2) : -16.0f;
}

/**
 * Nearest level (point and bilinear filtering) for @p lambda:
 * floor(lambda + 0.5) clamped to [0, max_level]. NaN gives 0, +inf the
 * coarsest level.
 */
inline uint32_t
nearestLevel(float lambda, uint32_t max_level)
{
    const float rounded = std::floor(lambda + 0.5f);
    if (!(rounded > 0.0f))
        return 0;
    return rounded >= static_cast<float>(max_level)
               ? max_level
               : static_cast<uint32_t>(rounded);
}

/** A trilinear probe pair: level m0, plus m0 + 1 when @p blend. */
struct TrilinearLevels
{
    uint32_t m0 = 0;
    bool blend = false;
};

/**
 * Trilinear levels for @p lambda: magnification (lambda <= 0, or NaN)
 * is one bilinear probe of the base; otherwise floor(lambda) and the
 * next level, clamped to max_level (one probe once both clamp).
 */
inline TrilinearLevels
trilinearLevels(float lambda, uint32_t max_level)
{
    if (!(lambda > 0.0f))
        return {};
    const uint32_t m0 = lambda >= static_cast<float>(max_level)
                            ? max_level
                            : static_cast<uint32_t>(lambda);
    return {m0, m0 < max_level};
}

/**
 * One level expression as rho2 thresholds: [k] is the least float rho2
 * at which the expression reaches level k. The expression is monotone
 * in rho2, so a level is the number of thresholds rho2 reaches. Each
 * threshold sits a few ulps below the power of two it approximates, at
 * most one per binade, so `binade` (by biased exponent: the level of
 * the binade's least float) leaves at most one compare to make.
 */
struct LodTable
{
    float threshold[kMaxLodLevels]; ///< [0] unused
    uint8_t binade[256];
};

/**
 * The level expressions above as threshold tables, built once per
 * process by bisection on the expressions themselves (so they follow
 * this libm's log2 exactly).
 */
struct LodThresholds
{
    LodTable nearest; ///< floor(lambda + 0.5): point and bilinear
    LodTable floor;   ///< floor(lambda): trilinear
    /** Least rho2 with lambda > 0: the start of trilinear blending. */
    float blend;
};

/** The process's threshold table (built on first use). */
const LodThresholds &lodThresholds();

/**
 * Levels 1..max_level whose threshold @p rho2 reaches (none when rho2
 * is not positive or NaN).
 */
inline uint32_t
levelAt(const LodTable &table, uint32_t max_level, float rho2)
{
    if (!(rho2 > 0.0f))
        return 0;
    uint32_t m = table.binade[std::bit_cast<uint32_t>(rho2) >> 23];
    while (m + 1 < kMaxLodLevels && rho2 >= table.threshold[m + 1])
        ++m;
    return m < max_level ? m : max_level;
}

/** Per-bound-texture state of the span kernel. */
struct SpanTexture
{
    FilterMode filter = FilterMode::Point;
    uint32_t max_level = 0;
    /** Per level, as float; [0] scales the derivatives to base texels. */
    float level_w[kMaxLodLevels] = {};
    float level_h[kMaxLodLevels] = {};
    uint32_t mask_x[kMaxLodLevels] = {}; ///< per level repeat-wrap mask
    uint32_t mask_y[kMaxLodLevels] = {};

    SpanTexture() = default;
    SpanTexture(const MipPyramid &pyramid, FilterMode filter);
};

/** Point footprint of (u, v) at level @p m (repeat wrapping). */
inline TexelRef
pointRef(const SpanTexture &t, float u, float v, uint32_t m)
{
    const int32_t x = static_cast<int32_t>(std::floor(u * t.level_w[m]));
    const int32_t y = static_cast<int32_t>(std::floor(v * t.level_h[m]));
    return TexelRef::texel(static_cast<uint32_t>(x) & t.mask_x[m],
                           static_cast<uint32_t>(y) & t.mask_y[m], m);
}

/** Bilinear footprint of (u, v) at level @p m (repeat wrapping). */
inline TexelRef
quadRef(const SpanTexture &t, float u, float v, uint32_t m)
{
    const int32_t x0 =
        static_cast<int32_t>(std::floor(u * t.level_w[m] - 0.5f));
    const int32_t y0 =
        static_cast<int32_t>(std::floor(v * t.level_h[m] - 0.5f));
    const uint32_t x = static_cast<uint32_t>(x0);
    const uint32_t y = static_cast<uint32_t>(y0);
    return TexelRef::quad(x & t.mask_x[m], y & t.mask_y[m],
                          (x + 1) & t.mask_x[m], (y + 1) & t.mask_y[m], m);
}

/**
 * One scanline span of the texture pass: pixels x .. x+n-1 of row y.
 * The inputs hold the affine attributes each pixel gets from the serial
 * `W += wx` stepping; the kernel writes the outputs for every pixel
 * it textures. Every array holds at least n entries.
 */
struct TexSpan
{
    uint32_t x = 0, y = 0, n = 0;
    const float *w = nullptr; ///< 1/w per pixel
    const float *u = nullptr; ///< u/w per pixel
    const float *v = nullptr; ///< v/w per pixel
    const uint8_t *keep = nullptr; ///< optional: 0 skips the pixel (z-prepass)
    float wx = 0, wy = 0, ux = 0, uy = 0, vx = 0, vy = 0; ///< screen gradients
    float *tu = nullptr;   ///< out: texture u per textured pixel
    float *tv = nullptr;   ///< out: texture v
    float *rho2 = nullptr; ///< out: squared LOD scale
};

/**
 * Whether the texture pass textures pixel @p k of @p s: its 1/w passes
 * the positivity guard (NaN passes, as it always has) and the optional
 * keep mask is set.
 */
inline bool
spanKeeps(const TexSpan &s, uint32_t k)
{
    return !(s.w[k] <= 0.0f) && (!s.keep || s.keep[k]);
}

/** The kernel's result: the end of what it wrote, and pixels textured. */
struct SpanEmit
{
    TexelRef *end;
    uint32_t pixels;
};

/**
 * Emit span @p s of texture @p t at @p out: per textured pixel, its
 * pixel marker then its footprint (one texel, one quad, or two quads
 * for a trilinear blend), at most 3 refs per pixel.
 */
SpanEmit spanKernel(const TexSpan &s, const SpanTexture &t, TexelRef *out);

/** Per-pixel scratch for spans up to one screen row. */
struct SpanScratch
{
    explicit SpanScratch(uint32_t width);

    std::vector<float> w, u, v, z, tu, tv, rho2;
    std::vector<uint8_t> keep;
};

} // namespace mltc

#endif // MLTC_RASTER_SPAN_KERNEL_HPP
