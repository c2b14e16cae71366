#include "texture/texture_batch.hpp"

#include <stdexcept>

#include "util/thread_pool.hpp"

namespace mltc {

TextureId
TextureBatch::add(std::string name, std::function<Image()> make)
{
    const auto tid = static_cast<TextureId>(textures_.textureCount() +
                                            pending_.size() + 1);
    pending_.push_back({std::move(name), std::move(make), tid});
    return tid;
}

void
TextureBatch::load(ThreadPool *pool)
{
    std::vector<MipPyramid> pyramids(pending_.size());
    parallelFor(pool, pending_.size(), [&](size_t i) {
        pyramids[i] = MipPyramid(pending_[i].make());
    });
    for (size_t i = 0; i < pending_.size(); ++i)
        if (textures_.load(std::move(pending_[i].name),
                           std::move(pyramids[i])) != pending_[i].tid)
            throw std::logic_error(
                "TextureBatch: a texture was loaded outside the batch");
    pending_.clear();
}

} // namespace mltc
