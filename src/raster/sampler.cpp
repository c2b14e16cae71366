#include "raster/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "geom/vec.hpp"
#include "obs/stage.hpp"

namespace mltc {

namespace {

/** Blend two packed colors channelwise: a*(1-t) + b*t. */
uint32_t
blend(uint32_t a, uint32_t b, float t)
{
    uint32_t out = 0;
    for (int ch = 0; ch < 4; ++ch) {
        float v = lerp(static_cast<float>(channel(a, ch)),
                       static_cast<float>(channel(b, ch)), t);
        out |= static_cast<uint32_t>(v + 0.5f) << (8 * ch);
    }
    return out;
}

} // namespace

const char *
filterModeName(FilterMode mode)
{
    switch (mode) {
      case FilterMode::Point: return "point";
      case FilterMode::Bilinear: return "bilinear";
      case FilterMode::Trilinear: return "trilinear";
    }
    return "?";
}

void
TextureSampler::bind(const TextureEntry &entry)
{
    pyramid_ = &entry.pyramid;
    tex_ = SpanTexture(entry.pyramid, tex_.filter);
    // Batches never span a texture bind: the buffered refs carry no
    // texture id, so they must reach the sink under the old binding.
    flushBatch();
    if (sink_)
        sink_->bindTexture(entry.tid);
}

TexelRef *
TextureSampler::reserve(size_t refs)
{
    if (len_ + refs > kBatchCap)
        flushBatch();
    if (len_ + refs > batch_.size())
        batch_.resize(std::max(len_ + refs, kBatchCap));
    return batch_.data() + len_;
}

uint32_t
TextureSampler::drawSpan(const TexSpan &span)
{
    Stage stage(HotStage::SamplerSample);
    const bool trilinear = tex_.filter == FilterMode::Trilinear;
    TexelRef *out = reserve(span.n * (trilinear ? 3u : 2u));
    const SpanEmit e = spanKernel(span, tex_, out);
    const auto refs = static_cast<size_t>(e.end - out);
    len_ += refs;
    const size_t texels = tex_.filter == FilterMode::Point ? 1 : 4;
    accesses_ += (refs - e.pixels) * texels;
    return e.pixels;
}

uint32_t
TextureSampler::filtered(float u, float v, uint32_t m0, bool blend_next,
                         float frac) const
{
    if (tex_.filter == FilterMode::Point) {
        const TexelRef r = pointRef(tex_, u, v, m0);
        return pyramid_->level(m0).texel(r.x0, r.y0);
    }
    auto bilinear = [&](uint32_t m) {
        const Image &img = pyramid_->level(m);
        const TexelRef r = quadRef(tex_, u, v, m);
        const float fx = u * tex_.level_w[m] - 0.5f;
        const float fy = v * tex_.level_h[m] - 0.5f;
        const float tx = fx - std::floor(fx);
        const float ty = fy - std::floor(fy);
        const uint32_t top =
            blend(img.texel(r.x0, r.y0), img.texel(r.x1, r.y0), tx);
        const uint32_t bot =
            blend(img.texel(r.x0, r.y1), img.texel(r.x1, r.y1), tx);
        return blend(top, bot, ty);
    };
    const uint32_t c0 = bilinear(m0);
    return blend_next ? blend(c0, bilinear(m0 + 1), frac) : c0;
}

uint32_t
TextureSampler::color(float u, float v, float rho2) const
{
    if (!shading_)
        return 0;
    const LodThresholds &lod = lodThresholds();
    if (tex_.filter != FilterMode::Trilinear)
        return filtered(u, v, levelAt(lod.nearest, tex_.max_level, rho2),
                        false, 0.0f);
    const uint32_t m0 = levelAt(lod.floor, tex_.max_level, rho2);
    if (!(rho2 >= lod.blend && m0 < tex_.max_level))
        return filtered(u, v, m0, false, 0.0f);
    // The blend weight is the one place a span still needs log2.
    const float lambda = lodLambda(rho2);
    return filtered(u, v, m0, true, lambda - std::floor(lambda));
}

uint32_t
TextureSampler::sample(float u, float v, float lambda)
{
    TrilinearLevels levels;
    if (tex_.filter == FilterMode::Trilinear)
        levels = trilinearLevels(lambda, tex_.max_level);
    else
        levels.m0 = nearestLevel(lambda, tex_.max_level);
    TexelRef *out = reserve(2);
    if (tex_.filter == FilterMode::Point) {
        *out++ = pointRef(tex_, u, v, levels.m0);
        accesses_ += 1;
    } else {
        *out++ = quadRef(tex_, u, v, levels.m0);
        if (levels.blend)
            *out++ = quadRef(tex_, u, v, levels.m0 + 1);
        accesses_ += levels.blend ? 8 : 4;
    }
    len_ = static_cast<size_t>(out - batch_.data());
    if (!shading_)
        return 0;
    return filtered(u, v, levels.m0, levels.blend,
                    lambda - std::floor(lambda));
}

} // namespace mltc
