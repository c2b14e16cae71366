/**
 * @file
 * The span kernel and the LOD threshold table (span_kernel.hpp).
 *
 * The library is built with -ffp-contract=off: every product and sum
 * rounds on its own, so the kernel, shading's footprint helpers and the
 * committed stream hashes agree on every target. The W/U/V chain is
 * stepped serially by the caller (W0 + k*wx would round differently).
 */
#include "raster/span_kernel.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace mltc {

namespace {

/**
 * Least positive float satisfying @p pred, which must be monotone over
 * positive floats and hold at +inf (returned when nothing finite does).
 * Positive floats order like their bit patterns.
 */
template <class Pred>
float
leastSatisfying(Pred pred)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    uint32_t lo = 1; // the least subnormal
    uint32_t hi = std::bit_cast<uint32_t>(kInf);
    while (lo < hi) {
        const uint32_t mid = lo + (hi - lo) / 2;
        if (pred(std::bit_cast<float>(mid)))
            hi = mid;
        else
            lo = mid + 1;
    }
    return std::bit_cast<float>(lo);
}

/** The table of the level expression @p reaches (monotone in rho2). */
template <class Reaches>
LodTable
buildTable(Reaches reaches)
{
    LodTable t{};
    for (uint32_t k = 1; k < kMaxLodLevels; ++k) {
        const float level = static_cast<float>(k);
        t.threshold[k] =
            leastSatisfying([&](float rho2) { return reaches(rho2, level); });
    }
    for (uint32_t e = 1; e < 256; ++e) {
        const float least = std::bit_cast<float>(e << 23);
        uint32_t m = 0;
        while (m + 1 < kMaxLodLevels && least >= t.threshold[m + 1])
            ++m;
        t.binade[e] = static_cast<uint8_t>(m);
    }
    return t;
}

LodThresholds
buildThresholds()
{
    LodThresholds t{};
    t.nearest = buildTable([](float rho2, float level) {
        return std::floor(lodLambda(rho2) + 0.5f) >= level;
    });
    t.floor = buildTable(
        [](float rho2, float level) { return lodLambda(rho2) >= level; });
    t.blend =
        leastSatisfying([](float rho2) { return lodLambda(rho2) > 0.0f; });
    return t;
}

} // namespace

const LodThresholds &
lodThresholds()
{
    static const LodThresholds table = buildThresholds();
    return table;
}

SpanTexture::SpanTexture(const MipPyramid &pyramid, FilterMode mode)
    : filter(mode), max_level(std::min(pyramid.levels(), kMaxLodLevels) - 1)
{
    for (uint32_t m = 0; m <= max_level; ++m) {
        const Image &img = pyramid.level(m);
        level_w[m] = static_cast<float>(img.width());
        level_h[m] = static_cast<float>(img.height());
        mask_x[m] = img.width() - 1;
        mask_y[m] = img.height() - 1;
    }
}

SpanScratch::SpanScratch(uint32_t width)
{
    for (std::vector<float> *a : {&w, &u, &v, &z, &tu, &tv, &rho2})
        a->assign(width, 0.0f);
    keep.assign(width, 1);
}

SpanEmit
spanKernel(const TexSpan &s, const SpanTexture &t, TexelRef *out)
{
    const LodThresholds &lod = lodThresholds();
    const LodTable &table =
        t.filter == FilterMode::Trilinear ? lod.floor : lod.nearest;
    // The outputs are stores the compiler must assume alias every float
    // and uint32 field read here: hold the loop's inputs in locals.
    const float wx = s.wx, wy = s.wy, ux = s.ux, uy = s.uy, vx = s.vx,
                vy = s.vy;
    const float base_w = t.level_w[0], base_h = t.level_h[0];
    const float blend = lod.blend;
    const uint32_t n = s.n, x = s.x, y = s.y;
    const float *const in_w = s.w, *const in_u = s.u, *const in_v = s.v;
    const uint8_t *const keep = s.keep;
    float *const tu = s.tu, *const tv = s.tv, *const out_rho2 = s.rho2;
    uint32_t pixels = 0;
    for (uint32_t k = 0; k < n; ++k) {
        // !spanKeeps(s, k) on the locals: a NaN 1/w is textured.
        if (in_w[k] <= 0.0f || (keep && !keep[k]))
            continue;
        const float w = 1.0f / in_w[k];
        const float u = in_u[k] * w;
        const float v = in_v[k] * w;
        // Exact screen-space derivatives of the texel coordinates:
        // d(u)/dx = (Ux - u*Wx) / W, scaled to base-level texels.
        const float dudx = (ux - u * wx) * w * base_w;
        const float dvdx = (vx - v * wx) * w * base_h;
        const float dudy = (uy - u * wy) * w * base_w;
        const float dvdy = (vy - v * wy) * w * base_h;
        const float rho2 = std::max(dudx * dudx + dvdx * dvdx,
                                    dudy * dudy + dvdy * dvdy);
        tu[k] = u;
        tv[k] = v;
        out_rho2[k] = rho2;

        *out++ = TexelRef::pixel(x + k, y);
        ++pixels;
        const uint32_t m = levelAt(table, t.max_level, rho2);
        switch (t.filter) {
          case FilterMode::Point:
            *out++ = pointRef(t, u, v, m);
            break;
          case FilterMode::Bilinear:
            *out++ = quadRef(t, u, v, m);
            break;
          case FilterMode::Trilinear:
            *out++ = quadRef(t, u, v, m);
            if (rho2 >= blend && m < t.max_level)
                *out++ = quadRef(t, u, v, m + 1);
            break;
        }
    }
    return {out, pixels};
}

} // namespace mltc
