/**
 * @file
 * Sink decorator that times and counts every call into the sink it
 * wraps. Used only in the traced run: it sits between a producer
 * (Rasterizer, FanoutSink, TraceReader) and a consumer (CacheSim,
 * TraceWriter) and forwards each entry point unchanged, so the consumer
 * sees the same event sequence through the same entry points as in the
 * untraced run. accessBatch forwards the span as one call — replaying it
 * through the scalar entry points would time a different program.
 */
#ifndef PERFBENCH_TIMING_SINK_HPP
#define PERFBENCH_TIMING_SINK_HPP

#include <chrono>
#include <cstdint>

#include "raster/access_sink.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Calls seen by a TimingSink since its last take(). */
struct SinkCounters
{
    int64_t first_ns = 0; ///< start of the first call (0 = none)
    int64_t ns = 0;       ///< summed call durations
    uint64_t calls = 0;
    uint64_t binds = 0;
    uint64_t batches = 0;
    uint64_t refs = 0;   ///< texel refs; a quad counts four
    uint64_t pixels = 0; ///< beginPixel events, scalar or in a batch
};

class TimingSink final : public mltc::TexelAccessSink
{
  public:
    explicit TimingSink(mltc::TexelAccessSink &inner) : inner_(inner) {}

    void
    bindTexture(mltc::TextureId tid) override
    {
        const int64_t t0 = begin();
        ++c_.binds;
        inner_.bindTexture(tid);
        end(t0);
    }

    void
    beginPixel(uint32_t px, uint32_t py) override
    {
        const int64_t t0 = begin();
        ++c_.pixels;
        inner_.beginPixel(px, py);
        end(t0);
    }

    void
    access(uint32_t x, uint32_t y, uint32_t mip) override
    {
        const int64_t t0 = begin();
        ++c_.refs;
        inner_.access(x, y, mip);
        end(t0);
    }

    void
    accessQuad(uint32_t x0, uint32_t y0, uint32_t x1, uint32_t y1,
               uint32_t mip) override
    {
        const int64_t t0 = begin();
        c_.refs += 4;
        inner_.accessQuad(x0, y0, x1, y1, mip);
        end(t0);
    }

    void
    accessBatch(std::span<const mltc::TexelRef> refs) override
    {
        for (const mltc::TexelRef &r : refs) {
            if (r.kind == mltc::TexelRef::kTexel)
                ++c_.refs;
            else if (r.kind == mltc::TexelRef::kQuad)
                c_.refs += 4;
            else
                ++c_.pixels;
        }
        ++c_.batches;
        const int64_t t0 = begin();
        inner_.accessBatch(refs);
        end(t0);
    }

    /** Counters since the last take(); resets them. */
    SinkCounters
    take()
    {
        SinkCounters out = c_;
        c_ = {};
        return out;
    }

  private:
    int64_t
    begin()
    {
        const int64_t t = nowNs();
        if (c_.calls++ == 0)
            c_.first_ns = t;
        return t;
    }

    void end(int64_t t0) { c_.ns += nowNs() - t0; }

    mltc::TexelAccessSink &inner_;
    SinkCounters c_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_SINK_HPP
