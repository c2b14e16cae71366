/**
 * @file
 * Push-architecture memory model (Figure 4's baseline).
 *
 * The paper charges the push architecture the *minimum* local memory it
 * could possibly need: whole textures (at original host depth) are
 * resident for every texture touched during a frame, replaced only at
 * frame boundaries by a perfect, oracular replacement algorithm (§4.2).
 * This is deliberately generous to the baseline — the measured L2 curves
 * beat even this oracle by 3-5x.
 */
#ifndef MLTC_CORE_PUSH_MODEL_HPP
#define MLTC_CORE_PUSH_MODEL_HPP

#include <cstdint>

#include "raster/access_sink.hpp"
#include "texture/texture_manager.hpp"
#include "trace/flat_set.hpp"

namespace mltc {

/**
 * Tracks the textures touched per frame and reports the oracle push
 * memory requirement.
 */
class PushArchitectureModel final : public TexelAccessSink
{
  public:
    explicit PushArchitectureModel(TextureManager &textures)
        : textures_(textures)
    {}

    void
    bindTexture(TextureId tid) override
    {
        if (touched_.insert(tid))
            frame_bytes_ += textures_.texture(tid).hostBytes();
    }

    /** Only binds matter to the push model. */
    void accessBatch(std::span<const TexelRef>) override {}

    /**
     * Minimum local texture memory for the frame just rendered, then
     * reset for the next frame.
     */
    uint64_t
    endFrame()
    {
        uint64_t out = frame_bytes_;
        frame_bytes_ = 0;
        touched_.clear();
        return out;
    }

    /** Serialize the frame's touched-texture set and byte accumulator. */
    void
    save(SnapshotWriter &w) const
    {
        w.section(snapTag("PSH "));
        touched_.save(w);
        w.u64(frame_bytes_);
    }

    /** Restore state captured by save(). */
    void
    load(SnapshotReader &r)
    {
        r.expectSection(snapTag("PSH "), "PushArchitectureModel");
        touched_.load(r);
        frame_bytes_ = r.u64();
    }

  private:
    TextureManager &textures_;
    FlatSet64 touched_{256};
    uint64_t frame_bytes_ = 0;
};

} // namespace mltc

#endif // MLTC_CORE_PUSH_MODEL_HPP
