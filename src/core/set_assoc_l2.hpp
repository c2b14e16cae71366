/**
 * @file
 * Set-associative L2 texture cache — the organisation the paper
 * *considers and rejects* in §5.1.
 *
 * The paper argues that direct-mapped and set-associative L2 caches
 * suffer inter-texture collisions that a hashing function cannot easily
 * avoid, and chooses a fully-associative page-table organisation
 * instead. We implement the rejected design so the ablation bench
 * (`abl_set_assoc_l2`) can quantify that argument: same capacity, same
 * sector mapping, but placement restricted to a set indexed by a hash of
 * the virtual block address.
 */
#ifndef MLTC_CORE_SET_ASSOC_L2_HPP
#define MLTC_CORE_SET_ASSOC_L2_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/cache_sim.hpp"
#include "core/l1_cache.hpp"
#include "raster/access_sink.hpp"
#include "texture/texture_manager.hpp"

namespace mltc {

/** Configuration for the set-associative L2 comparison. */
struct SetAssocL2Config
{
    L1Config l1;
    uint64_t l2_size_bytes = 2ull << 20;
    uint32_t l2_tile = 16;
    uint32_t l2_assoc = 4; ///< ways per set
};

/**
 * Two-level simulator with a set-associative L2 (sectored lines, LRU
 * within a set). Interface mirrors CacheSim so the bench can drive both
 * through a FanoutSink.
 */
class SetAssocL2Sim final : public TexelAccessSink
{
  public:
    SetAssocL2Sim(TextureManager &textures, const SetAssocL2Config &config,
                  std::string label = {});

    const std::string &label() const { return label_; }

    void bindTexture(TextureId tid) override;
    void accessBatch(std::span<const TexelRef> refs) override;

    /** Harvest per-frame deltas (same shape as CacheSim's). */
    CacheFrameStats endFrame();

    const CacheFrameStats &totals() const { return totals_; }

  private:
    /** Service one texel reference (each distinct quad corner). */
    void serviceTexel(uint32_t x, uint32_t y, uint32_t mip);

    struct Line
    {
        uint64_t tag = 0;     ///< packed <tid, L2> key; 0 = invalid
        uint64_t sectors = 0; ///< valid L1 sub-blocks
        uint64_t stamp = 0;   ///< LRU
    };

    TextureManager &textures_;
    SetAssocL2Config cfg_;
    std::string label_;
    L1Cache l1_;
    std::vector<Line> lines_;
    uint32_t sets_;
    uint64_t tick_ = 0;

    const TiledLayout *l1_layout_ = nullptr;
    const TiledLayout *l2_layout_ = nullptr;
    TextureId bound_ = 0;
    uint64_t host_sector_bytes_ = 0;
    uint64_t last_hit_key_ = 0; ///< coalescing filter (0 = none)

    CacheFrameStats frame_;
    CacheFrameStats totals_;
};

} // namespace mltc

#endif // MLTC_CORE_SET_ASSOC_L2_HPP
