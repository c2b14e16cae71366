/**
 * @file
 * Texture sampler: point / bilinear / trilinear filtering (paper §2.1).
 *
 * For every filtered sample it emits the exact set of texel references
 * the filter footprint touches (1, 4 or 8 texels) to the attached
 * TexelAccessSink, and — when shading is enabled — computes the filtered
 * color for display. The rasterizer hands it whole scanline spans
 * (drawSpan(), span_kernel.hpp); sample() takes one explicit LOD.
 */
#ifndef MLTC_RASTER_SAMPLER_HPP
#define MLTC_RASTER_SAMPLER_HPP

#include <cstdint>
#include <vector>

#include "raster/access_sink.hpp"
#include "raster/span_kernel.hpp"
#include "texture/texture_manager.hpp"

namespace mltc {

/** Human-readable name of a filter mode ("point"/"bilinear"/"trilinear"). */
const char *filterModeName(FilterMode mode);

/**
 * Per-object texture sampling state. Bind a texture, then draw spans
 * (or call sample() per pixel). Not thread-safe (the simulator is
 * single-threaded, like the hardware pipeline it models).
 */
class TextureSampler
{
  public:
    /** Attach the access-stream consumer (may be null to disable). */
    void
    setSink(TexelAccessSink *sink)
    {
        flushBatch();
        sink_ = sink;
    }

    /**
     * Deliver any buffered accesses to the sink as one batch. Footprints
     * reach the sink only through accessBatch(): the sampler buffers
     * them as TexelRefs until this call, the next bind(), or a span
     * that would overrun the buffer.
     */
    void
    flushBatch()
    {
        if (len_ != 0) {
            if (sink_)
                sink_->accessBatch({batch_.data(), len_});
            len_ = 0;
        }
    }

    /** Select the filter for subsequent samples. */
    void setFilter(FilterMode mode) { tex_.filter = mode; }

    FilterMode filter() const { return tex_.filter; }

    /** Enable color computation (off keeps simulation-only runs fast). */
    void setShading(bool enabled) { shading_ = enabled; }

    /**
     * Bind @p entry as the current texture; notifies the sink. The entry
     * must outlive subsequent samples.
     */
    void bind(const TextureEntry &entry);

    /**
     * Texture span @p span: per textured pixel, a pixel marker and its
     * footprint go into the batch in pixel order, and the span's outputs
     * (texture coordinates, rho2) are filled for color(). One
     * `sampler.sample` stage covers the whole span. Returns the pixels
     * textured.
     */
    uint32_t drawSpan(const TexSpan &span);

    /**
     * Filtered color of the bound texture at (u, v) for the LOD scale
     * @p rho2 a span produced (0 when shading is disabled).
     */
    uint32_t color(float u, float v, float rho2) const;

    /**
     * Sample the bound texture at normalised coordinates (u, v) (repeat
     * wrapping) with LOD @p lambda = log2(texels per pixel) measured in
     * base-level texels; NaN counts as magnification and +inf as the
     * coarsest level. Emits footprint accesses (no pixel marker);
     * returns the filtered color (0 when shading is disabled).
     */
    uint32_t sample(float u, float v, float lambda);

    /** Number of texel references emitted since construction. */
    uint64_t accessCount() const { return accesses_; }

  private:
    /** Color of the probe(s) @p m0 (and m0 + 1 weighted by @p frac). */
    uint32_t filtered(float u, float v, uint32_t m0, bool blend_next,
                      float frac) const;

    /** Make room for @p refs more refs, flushing at the backstop cap. */
    TexelRef *reserve(size_t refs);

    /** Backstop cap; the rasterizer flushes per scanline well below it. */
    static constexpr size_t kBatchCap = 4096;

    const MipPyramid *pyramid_ = nullptr;
    TexelAccessSink *sink_ = nullptr;
    SpanTexture tex_; ///< the bound texture's levels and the filter
    bool shading_ = false;
    uint64_t accesses_ = 0;
    std::vector<TexelRef> batch_; ///< buffer; the first len_ refs are live
    size_t len_ = 0;
};

} // namespace mltc

#endif // MLTC_RASTER_SAMPLER_HPP
