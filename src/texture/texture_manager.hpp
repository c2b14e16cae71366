/**
 * @file
 * Texture registry: owns MIP pyramids, assigns texture ids, tracks
 * host-memory residency (the "texture loaded into main memory" curve of
 * Figure 4) and caches TiledLayouts per tile spec.
 *
 * This models the host driver machinery the paper leans on in §5.2:
 * the driver "keeps track of textures as the application loads and
 * deletes them" and allocates contiguous page-table entries per texture
 * (tstart / tlen).
 */
#ifndef MLTC_TEXTURE_TEXTURE_MANAGER_HPP
#define MLTC_TEXTURE_TEXTURE_MANAGER_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "texture/mip_pyramid.hpp"
#include "texture/tiled_layout.hpp"

namespace mltc {

/** One registered texture. */
struct TextureEntry
{
    TextureId tid = 0;
    std::string name;
    MipPyramid pyramid;
    /**
     * Bits per texel in host memory (the texture's "original depth",
     * §3.2, e.g. 32/16/8; 4 for BTC-compressed storage); the cache
     * always stores 32-bit expanded texels.
     */
    uint32_t host_bits_per_texel = 32;
    bool loaded = false;

    /** Host-memory footprint of the whole pyramid at original depth. */
    uint64_t
    hostBytes() const
    {
        return pyramid.totalTexels() * host_bits_per_texel / 8;
    }
};

/**
 * Owner of all textures used by a scene. Texture ids start at 1 so 0 can
 * mean "untextured".
 */
class TextureManager
{
  public:
    TextureManager() = default;

    TextureManager(const TextureManager &) = delete;
    TextureManager &operator=(const TextureManager &) = delete;

    /**
     * Register and load a texture.
     * @return its texture id.
     */
    TextureId load(std::string name, MipPyramid pyramid,
                   uint32_t host_bytes_per_texel = 4);

    /**
     * Override a loaded texture's host storage depth in bits per texel
     * (e.g. 4 for BTC compression, 16 for RGB565 originals).
     */
    void setHostBitsPerTexel(TextureId tid, uint32_t bits);

    /** Unload (textures stay registered so ids remain stable). */
    void unload(TextureId tid);

    /** True when @p tid names a registered, loaded texture. */
    bool isLoaded(TextureId tid) const;

    /** Entry for @p tid; throws for unknown ids. */
    const TextureEntry &texture(TextureId tid) const;

    /** Number of registered textures (loaded or not). */
    size_t textureCount() const { return entries_.size(); }

    /** Sum of hostBytes() over loaded textures. */
    uint64_t totalHostBytes() const;

    /** Sum of 32-bit expanded bytes over loaded textures. */
    uint64_t totalExpandedBytes() const;

    /**
     * Tiled layout of @p tid under @p spec, built on first use and
     * cached. The reference stays valid for the manager's lifetime.
     * Safe to call from several threads at once (simulators consuming
     * one stream on different workers bind through it).
     */
    const TiledLayout &layout(TextureId tid, TileSpec spec);

    /** Apply @p fn to each loaded texture entry. */
    template <typename Fn>
    void
    forEachLoaded(Fn &&fn) const
    {
        for (const auto &e : entries_)
            if (e.loaded)
                fn(e);
    }

  private:
    std::vector<TextureEntry> entries_; ///< index = tid - 1
    std::mutex layouts_mutex_; ///< guards layouts_
    std::map<uint64_t, std::unique_ptr<TiledLayout>> layouts_;
};

} // namespace mltc

#endif // MLTC_TEXTURE_TEXTURE_MANAGER_HPP
