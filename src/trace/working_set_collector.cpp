#include "trace/working_set_collector.hpp"

#include <string>

#include "util/error.hpp"

namespace mltc {

WorkingSetCollector::WorkingSetCollector(TextureManager &textures,
                                         std::vector<uint32_t> l2_tiles,
                                         std::vector<uint32_t> l1_tiles)
    : textures_(textures)
{
    for (uint32_t t : l2_tiles) {
        Tracker tr;
        tr.tile = t;
        tr.is_l2 = true;
        trackers_.push_back(std::move(tr));
    }
    for (uint32_t t : l1_tiles) {
        Tracker tr;
        tr.tile = t;
        tr.is_l2 = false;
        trackers_.push_back(std::move(tr));
    }
}

void
WorkingSetCollector::rebindLayouts()
{
    if (bound_ == 0)
        return;
    for (auto &tr : trackers_) {
        // L2 trackers tile by the L2 size (L1 granularity is irrelevant
        // for block counting); L1 trackers use the paper's fixed 16x16
        // L2 granulation with the tracked L1 tile.
        TileSpec spec = tr.is_l2 ? TileSpec{tr.tile, 4}
                                 : TileSpec{16, tr.tile};
        if (spec.l1_tile > spec.l2_tile)
            spec.l2_tile = spec.l1_tile;
        tr.layout = &textures_.layout(bound_, spec);
    }
}

void
WorkingSetCollector::bindTexture(TextureId tid)
{
    bound_ = tid;
    rebindLayouts();
    for (auto &tr : trackers_)
        tr.last_key = ~0ull;
    if (textures_this_frame_.insert(tid))
        push_bytes_ += textures_.texture(tid).hostBytes();
}

void
WorkingSetCollector::accessBatch(std::span<const TexelRef> refs)
{
    for (const TexelRef &r : refs) {
        if (r.kind == TexelRef::kTexel) {
            ++pixel_refs_;
            recordTexel(r.x0, r.y0, r.mip);
        } else if (r.kind == TexelRef::kQuad) {
            pixel_refs_ += 4;
            // Every tracked tile size is >= 4 texels, so corners sharing
            // a 4x4 cell share every tracked block; record the distinct
            // corners only.
            const bool dx = (r.x0 >> 2) != (r.x1 >> 2);
            const bool dy = (r.y0 >> 2) != (r.y1 >> 2);
            recordTexel(r.x0, r.y0, r.mip);
            if (dx)
                recordTexel(r.x1, r.y0, r.mip);
            if (dy) {
                recordTexel(r.x0, r.y1, r.mip);
                if (dx)
                    recordTexel(r.x1, r.y1, r.mip);
            }
        }
    }
}

void
WorkingSetCollector::recordTexel(uint32_t x, uint32_t y, uint32_t mip)
{
    for (auto &tr : trackers_) {
        uint64_t key = tr.layout->blockKeyOf(bound_, x, y, mip);
        if (tr.is_l2)
            key = l2KeyOf(key);
        if (key == tr.last_key)
            continue; // spatially coherent fast path
        tr.last_key = key;
        tr.current.insert(key);
    }
}

FrameWorkingSet
WorkingSetCollector::endFrame()
{
    FrameWorkingSet out;
    out.pixel_refs = pixel_refs_;
    out.textures_touched = textures_this_frame_.size();
    out.push_bytes = push_bytes_;
    out.loaded_bytes = textures_.totalHostBytes();

    for (auto &tr : trackers_) {
        uint64_t total = tr.current.size();
        uint64_t fresh = 0;
        tr.current.forEach([&](uint64_t k) {
            if (!tr.previous.contains(k))
                ++fresh;
        });
        if (tr.is_l2)
            out.l2.push_back({tr.tile, total, fresh});
        else
            out.l1.push_back({tr.tile, total, fresh});

        std::swap(tr.current, tr.previous);
        tr.current.clear();
        tr.last_key = ~0ull;
    }

    textures_this_frame_.clear();
    pixel_refs_ = 0;
    push_bytes_ = 0;
    return out;
}

namespace {
constexpr uint32_t kWscTag = snapTag("WSC ");
} // namespace

void
WorkingSetCollector::save(SnapshotWriter &w) const
{
    w.section(kWscTag);
    w.u32(static_cast<uint32_t>(trackers_.size()));
    for (const auto &tr : trackers_) {
        w.u32(tr.tile);
        w.u8(tr.is_l2 ? 1 : 0);
        w.u64(tr.last_key);
        tr.current.save(w);
        tr.previous.save(w);
    }
    textures_this_frame_.save(w);
    w.u64(pixel_refs_);
    w.u64(push_bytes_);
    w.u32(bound_);
}

void
WorkingSetCollector::load(SnapshotReader &r)
{
    r.expectSection(kWscTag, "WorkingSetCollector");
    const uint32_t count = r.u32();
    if (count != trackers_.size())
        throw Exception(ErrorCode::VersionMismatch,
                        "WorkingSetCollector: snapshot tracks " +
                            std::to_string(count) +
                            " tile sizes, configured " +
                            std::to_string(trackers_.size()));
    for (auto &tr : trackers_) {
        const uint32_t tile = r.u32();
        const uint8_t is_l2 = r.u8();
        if (tile != tr.tile || (is_l2 != 0) != tr.is_l2)
            throw Exception(ErrorCode::VersionMismatch,
                            "WorkingSetCollector: snapshot tile size " +
                                std::to_string(tile) +
                                " does not match configured " +
                                std::to_string(tr.tile));
        tr.last_key = r.u64();
        tr.current.load(r);
        tr.previous.load(r);
    }
    textures_this_frame_.load(r);
    pixel_refs_ = r.u64();
    push_bytes_ = r.u64();
    bound_ = r.u32();
    rebindLayouts();
}

} // namespace mltc
