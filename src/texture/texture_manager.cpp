#include "texture/texture_manager.hpp"

#include <stdexcept>

namespace mltc {

TextureId
TextureManager::load(std::string name, MipPyramid pyramid,
                     uint32_t host_bytes_per_texel)
{
    if (pyramid.levels() == 0)
        throw std::invalid_argument("TextureManager: empty pyramid");
    TextureEntry e;
    e.tid = static_cast<TextureId>(entries_.size() + 1);
    e.name = std::move(name);
    e.pyramid = std::move(pyramid);
    e.host_bits_per_texel = host_bytes_per_texel * 8;
    e.loaded = true;
    entries_.push_back(std::move(e));
    return entries_.back().tid;
}

void
TextureManager::setHostBitsPerTexel(TextureId tid, uint32_t bits)
{
    if (tid == 0 || tid > entries_.size())
        throw std::out_of_range("TextureManager: bad tid");
    if (bits == 0 || bits > 32)
        throw std::invalid_argument("TextureManager: bad bit depth");
    entries_[tid - 1].host_bits_per_texel = bits;
}

void
TextureManager::unload(TextureId tid)
{
    if (tid == 0 || tid > entries_.size())
        throw std::out_of_range("TextureManager: bad tid");
    entries_[tid - 1].loaded = false;
}

bool
TextureManager::isLoaded(TextureId tid) const
{
    return tid != 0 && tid <= entries_.size() && entries_[tid - 1].loaded;
}

const TextureEntry &
TextureManager::texture(TextureId tid) const
{
    if (tid == 0 || tid > entries_.size())
        throw std::out_of_range("TextureManager: bad tid");
    return entries_[tid - 1];
}

uint64_t
TextureManager::totalHostBytes() const
{
    uint64_t total = 0;
    for (const auto &e : entries_)
        if (e.loaded)
            total += e.hostBytes();
    return total;
}

uint64_t
TextureManager::totalExpandedBytes() const
{
    uint64_t total = 0;
    for (const auto &e : entries_)
        if (e.loaded)
            total += e.pyramid.totalBytes();
    return total;
}

const TiledLayout &
TextureManager::layout(TextureId tid, TileSpec spec)
{
    const TextureEntry &e = texture(tid);
    uint64_t key = (static_cast<uint64_t>(tid) << 32) | spec.key();
    std::lock_guard<std::mutex> lock(layouts_mutex_);
    auto it = layouts_.find(key);
    if (it == layouts_.end()) {
        auto built = std::make_unique<TiledLayout>(
            e.pyramid.width(), e.pyramid.height(), e.pyramid.levels(), spec);
        it = layouts_.emplace(key, std::move(built)).first;
    }
    return *it->second;
}

} // namespace mltc
