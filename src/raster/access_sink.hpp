/**
 * @file
 * Consumer interface for the per-pixel texel access stream.
 *
 * The rasterizer announces the bound texture once per object, then emits
 * every texel reference (texel coordinates + MIP level) generated while
 * scan-converting that object. Cache simulators and the statistics
 * library both attach here — this mirrors the paper's approach of
 * instrumenting the renderer with "calls to our own tracing library from
 * appropriate code sites" (§3.2).
 */
#ifndef MLTC_RASTER_ACCESS_SINK_HPP
#define MLTC_RASTER_ACCESS_SINK_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "texture/tiled_layout.hpp"

namespace mltc {

/**
 * One element of the access stream, and the only form in which
 * producers (sampler, trace replay, multi-stream replay) hand texels to
 * a sink: a texel, a bilinear quad or a pixel marker. Producers buffer
 * these a scanline (or a between-bind slice) at a time and hand the
 * span to accessBatch(), paying one virtual call and one
 * observability-hook crossing per batch instead of per texel. Pixel
 * markers are recorded verbatim, never deduplicated.
 */
struct TexelRef
{
    enum Kind : uint16_t
    {
        kTexel = 0, ///< one texel reference (x0, y0, mip)
        kQuad = 1,  ///< bilinear footprint (x0|x1, y0|y1, mip)
        kPixel = 2, ///< beginPixel marker; screen position in (x0, y0)
    };

    uint32_t x0 = 0;
    uint32_t y0 = 0;
    uint32_t x1 = 0; ///< quad only: wrapped neighbour column
    uint32_t y1 = 0; ///< quad only: wrapped neighbour row
    uint16_t mip = 0;
    uint16_t kind = kTexel;

    static constexpr TexelRef
    texel(uint32_t x, uint32_t y, uint32_t m)
    {
        return {x, y, 0, 0, static_cast<uint16_t>(m), kTexel};
    }

    static constexpr TexelRef
    quad(uint32_t x0, uint32_t y0, uint32_t x1, uint32_t y1, uint32_t m)
    {
        return {x0, y0, x1, y1, static_cast<uint16_t>(m), kQuad};
    }

    static constexpr TexelRef
    pixel(uint32_t px, uint32_t py)
    {
        return {px, py, 0, 0, 0, kPixel};
    }
};

/**
 * Always true: producers have no scalar emission mode. Kept only
 * because the end-to-end benchmark driver (perfbench/e2e/main.cpp)
 * calls it to refuse non-batched runs, and that driver is frozen with
 * the benchmark contract.
 */
inline bool
batchedAccess()
{
    return true;
}

/**
 * Receives the texel access stream. A consumer implements exactly two
 * calls: bindTexture() and accessBatch(). The scalar calls access(),
 * accessQuad() and beginPixel() each wrap one TexelRef into a
 * one-element accessBatch(); they stay virtual because perfbench's
 * TimingSink overrides them to count calls.
 *
 * An accessBatch() must not call the scalar wrappers on `this`: they
 * call back into accessBatch() and recurse.
 */
class TexelAccessSink
{
  public:
    virtual ~TexelAccessSink() = default;

    /**
     * All subsequent accesses refer to texture @p tid (the
     * accelerator's "current texture" register, §5.2).
     */
    virtual void bindTexture(TextureId tid) = 0;

    /**
     * A buffered span of accesses between two texture binds (producers
     * flush before every bindTexture call, so a batch never spans a
     * bind).
     */
    virtual void accessBatch(std::span<const TexelRef> refs) = 0;

    /**
     * Subsequent accesses shade screen pixel (px, py): position
     * metadata for spatial profilers (screen-space miss heatmaps).
     * Span traces store it, so replay reproduces it.
     */
    virtual void
    beginPixel(uint32_t px, uint32_t py)
    {
        const TexelRef r = TexelRef::pixel(px, py);
        accessBatch({&r, 1});
    }

    /** One texel reference at (x, y) of MIP level @p mip. */
    virtual void
    access(uint32_t x, uint32_t y, uint32_t mip)
    {
        const TexelRef r = TexelRef::texel(x, y, mip);
        accessBatch({&r, 1});
    }

    /**
     * A bilinear footprint: the four texels (x0|x1, y0|y1) of level
     * @p mip, where x1/y1 are the (wrapped) neighbours of x0/y0.
     */
    virtual void
    accessQuad(uint32_t x0, uint32_t y0, uint32_t x1, uint32_t y1,
               uint32_t mip)
    {
        const TexelRef r = TexelRef::quad(x0, y0, x1, y1, mip);
        accessBatch({&r, 1});
    }
};

/** Sink that drops everything (render-only paths). */
class NullSink final : public TexelAccessSink
{
  public:
    void bindTexture(TextureId) override {}
    void accessBatch(std::span<const TexelRef>) override {}
};

/** Sink that counts accesses (testing and quick statistics). */
class CountingSink final : public TexelAccessSink
{
  public:
    void bindTexture(TextureId tid) override { last_tid = tid; }

    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        for (const TexelRef &r : refs) {
            if (r.kind == TexelRef::kTexel)
                ++count;
            else if (r.kind == TexelRef::kQuad)
                count += 4;
        }
    }

    uint64_t count = 0;
    TextureId last_tid = 0;
};

/** Fan a single access stream out to several sinks (multi-config runs). */
class FanoutSink final : public TexelAccessSink
{
  public:
    /** Attach a downstream sink; not owned. */
    void add(TexelAccessSink *sink) { sinks_.push_back(sink); }

    void clear() { sinks_.clear(); }

    void
    bindTexture(TextureId tid) override
    {
        for (auto *s : sinks_)
            s->bindTexture(tid);
    }

    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        for (auto *s : sinks_)
            s->accessBatch(refs);
    }

  private:
    std::vector<TexelAccessSink *> sinks_;
};

} // namespace mltc

#endif // MLTC_RASTER_ACCESS_SINK_HPP
