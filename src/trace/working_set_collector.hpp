/**
 * @file
 * Per-frame texture working-set statistics (paper §3.2 and §4.2).
 *
 * Attached to the rasterizer's access stream, the collector tracks, for
 * each configured L2 tile size, the set of L2 blocks touched this frame
 * (total and new versus the previous frame), and for each configured L1
 * tile size the set of L1 tiles touched (total and new). It also tracks
 * the set of textures referenced (for the push-architecture minimum
 * memory) and the raw pixel reference count (for depth complexity and
 * block utilisation).
 *
 * These are exactly the quantities behind the paper's Figures 4, 5 and 6
 * and Table 1.
 */
#ifndef MLTC_TRACE_WORKING_SET_COLLECTOR_HPP
#define MLTC_TRACE_WORKING_SET_COLLECTOR_HPP

#include <cstdint>
#include <vector>

#include "raster/access_sink.hpp"
#include "texture/texture_manager.hpp"
#include "trace/flat_set.hpp"

namespace mltc {

/** Per-frame L2 block-touch statistics for one L2 tile size. */
struct L2WorkingSet
{
    uint32_t l2_tile = 16;
    uint64_t blocks_touched = 0;
    uint64_t blocks_new = 0; ///< touched this frame but not the previous

    /** Bytes at 32-bit cached texels. */
    uint64_t
    bytesTouched() const
    {
        return blocks_touched * l2_tile * l2_tile * 4;
    }

    uint64_t
    bytesNew() const
    {
        return blocks_new * l2_tile * l2_tile * 4;
    }
};

/** Per-frame L1 tile-touch statistics for one L1 tile size. */
struct L1WorkingSet
{
    uint32_t l1_tile = 4;
    uint64_t tiles_touched = 0;
    uint64_t tiles_new = 0;

    /**
     * Minimum download bytes for the pull architecture: every tile hit
     * at least once must be fetched at least once (32-bit texels).
     */
    uint64_t
    bytesTouched() const
    {
        return tiles_touched * l1_tile * l1_tile * 4;
    }

    /** Minimum download bytes with a perfect L2 cache (new tiles only). */
    uint64_t
    bytesNew() const
    {
        return tiles_new * l1_tile * l1_tile * 4;
    }
};

/** Everything measured for one frame. */
struct FrameWorkingSet
{
    uint64_t pixel_refs = 0;      ///< texel references this frame
    uint64_t textures_touched = 0;
    uint64_t push_bytes = 0;      ///< whole-texture bytes touched (original depth)
    uint64_t loaded_bytes = 0;    ///< all textures resident in host memory
    std::vector<L2WorkingSet> l2; ///< one entry per configured L2 tile size
    std::vector<L1WorkingSet> l1; ///< one entry per configured L1 tile size

    /**
     * Block utilisation for L2 entry @p idx: texel references divided by
     * texels covered by touched blocks (>1 means texel reuse, §4.1).
     */
    double
    utilization(size_t idx) const
    {
        const auto &ws = l2[idx];
        uint64_t texels = ws.blocks_touched * ws.l2_tile * ws.l2_tile;
        return texels ? static_cast<double>(pixel_refs) /
                            static_cast<double>(texels)
                      : 0.0;
    }
};

/**
 * Access-stream statistics collector. Feed a frame's accesses, then call
 * endFrame() to harvest the numbers and roll the frame boundary.
 */
class WorkingSetCollector final : public TexelAccessSink
{
  public:
    /**
     * @param textures texture registry (layouts are built through it)
     * @param l2_tiles L2 tile sizes to track (e.g. {8, 16, 32})
     * @param l1_tiles L1 tile sizes to track (e.g. {4, 8})
     */
    WorkingSetCollector(TextureManager &textures,
                        std::vector<uint32_t> l2_tiles,
                        std::vector<uint32_t> l1_tiles);

    void bindTexture(TextureId tid) override;
    void accessBatch(std::span<const TexelRef> refs) override;

    /** Harvest this frame's statistics and start the next frame. */
    FrameWorkingSet endFrame();

    /** Serialize tracker sets, per-frame accumulators and bound state. */
    void save(SnapshotWriter &w) const;

    /**
     * Restore state captured by save().
     * @throws mltc::Exception (VersionMismatch) when the tracked tile
     *         sizes differ from the snapshot's.
     */
    void load(SnapshotReader &r);

  private:
    /** Record one texel in every tracker (no pixel_refs update). */
    void recordTexel(uint32_t x, uint32_t y, uint32_t mip);

    /**
     * Re-derive the trackers' layout pointers for the bound texture.
     * Pure (no per-frame side effects), so load() can call it without
     * double-counting the bind in textures_this_frame_/push_bytes_.
     */
    void rebindLayouts();

    struct Tracker
    {
        uint32_t tile = 0;
        bool is_l2 = false;            ///< count L2 blocks vs full L1 keys
        const TiledLayout *layout = nullptr; ///< for the bound texture
        uint64_t last_key = ~0ull;     ///< spatial-coherence fast path
        FlatSet64 current{1 << 14};
        FlatSet64 previous{1 << 14};
    };

    TextureManager &textures_;
    std::vector<Tracker> trackers_;
    FlatSet64 textures_this_frame_{256};
    uint64_t pixel_refs_ = 0;
    uint64_t push_bytes_ = 0;
    TextureId bound_ = 0;
};

} // namespace mltc

#endif // MLTC_TRACE_WORKING_SET_COLLECTOR_HPP
