/**
 * @file
 * Texture sampler: point / bilinear / trilinear filtering (paper §2.1).
 *
 * For every filtered sample it emits the exact set of texel references
 * the filter footprint touches (1, 4 or 8 texels) to the attached
 * TexelAccessSink, and — when shading is enabled — computes the filtered
 * color for display.
 */
#ifndef MLTC_RASTER_SAMPLER_HPP
#define MLTC_RASTER_SAMPLER_HPP

#include <cstdint>
#include <vector>

#include "raster/access_sink.hpp"
#include "texture/texture_manager.hpp"

namespace mltc {

/** Texture filtering mode. */
enum class FilterMode { Point, Bilinear, Trilinear };

/** Human-readable name of a filter mode ("point"/"bilinear"/"trilinear"). */
const char *filterModeName(FilterMode mode);

/**
 * Per-object texture sampling state. Bind a texture, then call sample()
 * per pixel. Not thread-safe (the simulator is single-threaded, like the
 * hardware pipeline it models).
 */
class TextureSampler
{
  public:
    TextureSampler() = default;

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
     * them as TexelRefs until this call, the next bind(), or a full
     * buffer.
     */
    void
    flushBatch()
    {
        if (!batch_.empty()) {
            if (sink_)
                sink_->accessBatch(batch_);
            batch_.clear();
        }
    }

    /** Select the filter for subsequent samples. */
    void setFilter(FilterMode mode) { filter_ = mode; }

    FilterMode filter() const { return filter_; }

    /** Enable color computation (off keeps simulation-only runs fast). */
    void setShading(bool enabled) { shading_ = enabled; }

    /**
     * Bind @p entry as the current texture; notifies the sink. The entry
     * must outlive subsequent sample() calls.
     */
    void bind(const TextureEntry &entry);

    /** Announce the screen pixel subsequent samples shade (profiling). */
    void
    beginPixel(uint32_t px, uint32_t py)
    {
        if (sink_)
            push(TexelRef::pixel(px, py));
    }

    /**
     * Sample the bound texture at normalised coordinates (u, v) (repeat
     * wrapping) with LOD @p lambda = log2(texels per pixel) measured in
     * base-level texels. Emits footprint accesses; returns the filtered
     * color (0 when shading is disabled).
     */
    uint32_t sample(float u, float v, float lambda);

    /** Number of texel references emitted since construction. */
    uint64_t accessCount() const { return accesses_; }

    /**
     * Harvest (and reset) wall time spent inside sample() while a
     * global tracer was installed (see SelfTimer) — the sampler's
     * aggregate self time for stage summaries. Zero while not tracing.
     */
    uint64_t
    takeSampleNs()
    {
        const uint64_t ns = sample_ns_;
        sample_ns_ = 0;
        return ns;
    }

  private:
    uint32_t samplePoint(float u, float v, uint32_t m);
    uint32_t sampleBilinear(float u, float v, uint32_t m);

    /** sample() body, shared by the traced and untraced branches. */
    uint32_t sampleImpl(float u, float v, float lambda);

    /** Backstop cap; the rasterizer flushes per scanline well below it. */
    static constexpr size_t kBatchCap = 4096;

    void
    push(const TexelRef &r)
    {
        batch_.push_back(r);
        if (batch_.size() >= kBatchCap)
            flushBatch();
    }

    const MipPyramid *pyramid_ = nullptr;
    TexelAccessSink *sink_ = nullptr;
    FilterMode filter_ = FilterMode::Point;
    bool shading_ = false;
    uint32_t max_level_ = 0;
    uint64_t accesses_ = 0;
    uint64_t sample_ns_ = 0; ///< SelfTimer accumulator (tracing only)
    std::vector<TexelRef> batch_;
};

} // namespace mltc

#endif // MLTC_RASTER_SAMPLER_HPP
