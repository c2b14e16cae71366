#include "raster/sampler.hpp"

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
    max_level_ = pyramid_->levels() - 1;
    // Batches never span a texture bind: the buffered refs carry no
    // texture id, so they must reach the sink under the old binding.
    flushBatch();
    if (sink_)
        sink_->bindTexture(entry.tid);
}

uint32_t
TextureSampler::samplePoint(float u, float v, uint32_t m)
{
    const Image &img = pyramid_->level(m);
    // Truncate-to-nearest texel; repeat wrap via power-of-two mask.
    int32_t x = static_cast<int32_t>(
        std::floor(u * static_cast<float>(img.width())));
    int32_t y = static_cast<int32_t>(
        std::floor(v * static_cast<float>(img.height())));
    uint32_t ux = static_cast<uint32_t>(x) & (img.width() - 1);
    uint32_t uy = static_cast<uint32_t>(y) & (img.height() - 1);
    if (sink_)
        push(TexelRef::texel(ux, uy, m));
    ++accesses_;
    return shading_ ? img.texel(ux, uy) : 0;
}

uint32_t
TextureSampler::sampleBilinear(float u, float v, uint32_t m)
{
    const Image &img = pyramid_->level(m);
    float fx = u * static_cast<float>(img.width()) - 0.5f;
    float fy = v * static_cast<float>(img.height()) - 0.5f;
    float flx = std::floor(fx);
    float fly = std::floor(fy);
    int32_t x0 = static_cast<int32_t>(flx);
    int32_t y0 = static_cast<int32_t>(fly);
    uint32_t mask_x = img.width() - 1;
    uint32_t mask_y = img.height() - 1;
    uint32_t ux0 = static_cast<uint32_t>(x0) & mask_x;
    uint32_t uy0 = static_cast<uint32_t>(y0) & mask_y;
    uint32_t ux1 = static_cast<uint32_t>(x0 + 1) & mask_x;
    uint32_t uy1 = static_cast<uint32_t>(y0 + 1) & mask_y;

    if (sink_)
        push(TexelRef::quad(ux0, uy0, ux1, uy1, m));
    accesses_ += 4;

    if (!shading_)
        return 0;
    float tx = fx - flx;
    float ty = fy - fly;
    uint32_t top = blend(img.texel(ux0, uy0), img.texel(ux1, uy0), tx);
    uint32_t bot = blend(img.texel(ux0, uy1), img.texel(ux1, uy1), tx);
    return blend(top, bot, ty);
}

uint32_t
TextureSampler::sample(float u, float v, float lambda)
{
    Stage stage(HotStage::SamplerSample);
    switch (filter_) {
      case FilterMode::Point: {
        float rounded = std::floor(lambda + 0.5f);
        uint32_t m = rounded <= 0.0f
                         ? 0u
                         : std::min(static_cast<uint32_t>(rounded), max_level_);
        return samplePoint(u, v, m);
      }
      case FilterMode::Bilinear: {
        float rounded = std::floor(lambda + 0.5f);
        uint32_t m = rounded <= 0.0f
                         ? 0u
                         : std::min(static_cast<uint32_t>(rounded), max_level_);
        return sampleBilinear(u, v, m);
      }
      case FilterMode::Trilinear: {
        if (lambda <= 0.0f) {
            // Magnification: a single bilinear probe of the base level,
            // as real trilinear hardware degenerates to.
            return sampleBilinear(u, v, 0);
        }
        uint32_t m0 = std::min(static_cast<uint32_t>(lambda), max_level_);
        uint32_t m1 = std::min(m0 + 1, max_level_);
        if (m0 == m1)
            return sampleBilinear(u, v, m0);
        uint32_t c0 = sampleBilinear(u, v, m0);
        uint32_t c1 = sampleBilinear(u, v, m1);
        if (!shading_)
            return 0;
        float frac = lambda - std::floor(lambda);
        return blend(c0, c1, frac);
      }
    }
    return 0;
}

} // namespace mltc
