#include "core/set_assoc_l2.hpp"

#include <stdexcept>

namespace mltc {

namespace {

uint64_t
mix(uint64_t key)
{
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ull;
    key ^= key >> 29;
    return key;
}

} // namespace

SetAssocL2Sim::SetAssocL2Sim(TextureManager &textures,
                             const SetAssocL2Config &config,
                             std::string label)
    : textures_(textures), cfg_(config), label_(std::move(label)),
      l1_(config.l1)
{
    uint64_t block_bytes =
        static_cast<uint64_t>(config.l2_tile) * config.l2_tile * 4;
    uint64_t blocks = config.l2_size_bytes / block_bytes;
    if (blocks == 0 || blocks % config.l2_assoc != 0)
        throw std::invalid_argument("SetAssocL2Sim: bad geometry");
    sets_ = static_cast<uint32_t>(blocks / config.l2_assoc);
    if (!isPowerOfTwo(sets_))
        throw std::invalid_argument("SetAssocL2Sim: sets not power of two");
    lines_.assign(blocks, {});
}

void
SetAssocL2Sim::bindTexture(TextureId tid)
{
    bound_ = tid;
    TileSpec l1_spec{std::max(16u, cfg_.l1.l1_tile), cfg_.l1.l1_tile,
                     /*morton=*/true};
    l1_layout_ = &textures_.layout(tid, l1_spec);
    TileSpec l2_spec{cfg_.l2_tile, cfg_.l1.l1_tile};
    l2_layout_ = &textures_.layout(tid, l2_spec);
    const TextureEntry &tex = textures_.texture(tid);
    host_sector_bytes_ = static_cast<uint64_t>(cfg_.l1.l1_tile) *
                         cfg_.l1.l1_tile * tex.host_bits_per_texel / 8;
}

void
SetAssocL2Sim::accessBatch(std::span<const TexelRef> refs)
{
    const uint32_t sh = log2u(cfg_.l1.l1_tile);
    for (const TexelRef &r : refs) {
        if (r.kind == TexelRef::kTexel) {
            ++frame_.accesses;
            handleTexel(r.x0, r.y0, r.mip);
        } else if (r.kind == TexelRef::kQuad) {
            frame_.accesses += 4;
            const bool dx = (r.x0 >> sh) != (r.x1 >> sh);
            const bool dy = (r.y0 >> sh) != (r.y1 >> sh);
            handleTexel(r.x0, r.y0, r.mip);
            if (dx)
                handleTexel(r.x1, r.y0, r.mip);
            if (dy) {
                handleTexel(r.x0, r.y1, r.mip);
                if (dx)
                    handleTexel(r.x1, r.y1, r.mip);
            }
        }
    }
}

void
SetAssocL2Sim::handleTexel(uint32_t x, uint32_t y, uint32_t mip)
{
    const uint64_t l1_key = l1_layout_->blockKeyOf(bound_, x, y, mip);
    // One-entry coalescing filter (see CacheSim::handleTexel).
    if (l1_key == last_hit_key_)
        return;
    if (l1_.lookup(l1_key)) {
        last_hit_key_ = l1_key;
        return;
    }
    ++frame_.l1_misses;

    const uint64_t full_key = l2_layout_->blockKeyOf(bound_, x, y, mip);
    const uint64_t l2_tag = l2KeyOf(full_key);
    const uint32_t l1_sub = static_cast<uint32_t>(full_key & 0xff);
    const uint64_t sector_bit = 1ull << l1_sub;

    const size_t base =
        (static_cast<size_t>(mix(l2_tag)) & (sets_ - 1)) * cfg_.l2_assoc;

    // Search the set.
    size_t victim = base;
    uint64_t oldest = ~0ull;
    for (uint32_t w = 0; w < cfg_.l2_assoc; ++w) {
        Line &line = lines_[base + w];
        if (line.tag == l2_tag) {
            line.stamp = ++tick_;
            if (line.sectors & sector_bit) {
                ++frame_.l2_full_hits;
                frame_.l2_read_bytes += cfg_.l1.lineBytes();
            } else {
                ++frame_.l2_partial_hits;
                line.sectors |= sector_bit;
                frame_.host_bytes += host_sector_bytes_;
            }
            l1_.fill(l1_key);
            last_hit_key_ = l1_key;
            return;
        }
        if (line.tag == 0) { // free way wins immediately
            victim = base + w;
            oldest = 0;
            break;
        }
        if (line.stamp < oldest) {
            oldest = line.stamp;
            victim = base + w;
        }
    }

    // Full miss: (re)allocate the victim line for this block.
    ++frame_.l2_full_misses;
    Line &line = lines_[victim];
    line.tag = l2_tag;
    line.sectors = sector_bit;
    line.stamp = ++tick_;
    frame_.host_bytes += host_sector_bytes_;
    l1_.fill(l1_key);
    last_hit_key_ = l1_key;
}

CacheFrameStats
SetAssocL2Sim::endFrame()
{
    CacheFrameStats out = frame_;
    totals_.add(out);
    frame_ = {};
    return out;
}

} // namespace mltc
