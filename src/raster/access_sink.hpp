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
 * One element of the access stream: a lossless encoding of the scalar
 * sink events between two texture binds, and the only form in which
 * producers (sampler, trace replay, multi-stream replay) hand texels to
 * a sink. They buffer these a scanline (or a between-bind slice) at a
 * time and hand the span to accessBatch(), paying one virtual call and
 * one observability-hook crossing per batch instead of per texel. Pixel
 * markers are recorded verbatim — never deduplicated — so replaying a
 * batch element-by-element through the scalar entry points reproduces
 * the exact scalar event sequence.
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

/** Receives the texel access stream from the rasterizer. */
class TexelAccessSink
{
  public:
    virtual ~TexelAccessSink() = default;

    /**
     * All subsequent access() calls refer to texture @p tid (the
     * accelerator's "current texture" register, §5.2).
     */
    virtual void bindTexture(TextureId tid) = 0;

    /**
     * Subsequent accesses shade screen pixel (px, py). Optional
     * position metadata for spatial profilers (screen-space miss
     * heatmaps); the default ignores it, and trace replay does not
     * reproduce it.
     */
    virtual void beginPixel(uint32_t px, uint32_t py)
    {
        (void)px;
        (void)py;
    }

    /** One texel reference at (x, y) of MIP level @p mip. */
    virtual void access(uint32_t x, uint32_t y, uint32_t mip) = 0;

    /**
     * A bilinear footprint: the four texels (x0|x1, y0|y1) of level
     * @p mip, where x1/y1 are the (wrapped) neighbours of x0/y0. The
     * default expands to four access() calls; cache simulators override
     * it to coalesce the footprint (it usually lands in one tile).
     */
    virtual void
    accessQuad(uint32_t x0, uint32_t y0, uint32_t x1, uint32_t y1,
               uint32_t mip)
    {
        access(x0, y0, mip);
        access(x1, y0, mip);
        access(x0, y1, mip);
        access(x1, y1, mip);
    }

    /**
     * A buffered span of accesses between two texture binds (producers
     * flush before every bindTexture call, so a batch never spans a
     * bind). The default replays the span through the scalar entry
     * points in order, which makes every sink batch-correct by
     * construction; CacheSim overrides this with a vectorized fast
     * path that is bit-identical to the replay.
     */
    virtual void
    accessBatch(std::span<const TexelRef> refs)
    {
        for (const TexelRef &r : refs) {
            switch (r.kind) {
              case TexelRef::kTexel:
                access(r.x0, r.y0, r.mip);
                break;
              case TexelRef::kQuad:
                accessQuad(r.x0, r.y0, r.x1, r.y1, r.mip);
                break;
              default:
                beginPixel(r.x0, r.y0);
                break;
            }
        }
    }
};

/** Sink that drops everything (render-only paths). */
class NullSink final : public TexelAccessSink
{
  public:
    void bindTexture(TextureId) override {}
    void access(uint32_t, uint32_t, uint32_t) override {}
    void accessQuad(uint32_t, uint32_t, uint32_t, uint32_t,
                    uint32_t) override
    {
    }
    void accessBatch(std::span<const TexelRef>) override {}
};

/** Sink that counts accesses (testing and quick statistics). */
class CountingSink final : public TexelAccessSink
{
  public:
    void bindTexture(TextureId tid) override { last_tid = tid; }

    void
    access(uint32_t, uint32_t, uint32_t) override
    {
        ++count;
    }

    void
    accessQuad(uint32_t, uint32_t, uint32_t, uint32_t, uint32_t) override
    {
        count += 4;
    }

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
    beginPixel(uint32_t px, uint32_t py) override
    {
        for (auto *s : sinks_)
            s->beginPixel(px, py);
    }

    void
    access(uint32_t x, uint32_t y, uint32_t mip) override
    {
        for (auto *s : sinks_)
            s->access(x, y, mip);
    }

    void
    accessQuad(uint32_t x0, uint32_t y0, uint32_t x1, uint32_t y1,
               uint32_t mip) override
    {
        for (auto *s : sinks_)
            s->accessQuad(x0, y0, x1, y1, mip);
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
