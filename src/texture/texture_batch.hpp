/**
 * @file
 * Deferred texture loading for the workload builders.
 *
 * Every procedural texture is a pure function of its size and seed, so
 * the textures of a workload can be synthesized in any order, on any
 * thread, and give the same bytes. A builder queues each one with
 * add(), which hands back the id the texture will get, and goes on
 * placing geometry; load() then synthesizes every queued base image
 * and MIP pyramid with parallelFor() and registers them in add()
 * order. Ids, names and texels are exactly those of loading each
 * texture on the spot.
 */
#ifndef MLTC_TEXTURE_TEXTURE_BATCH_HPP
#define MLTC_TEXTURE_TEXTURE_BATCH_HPP

#include <functional>
#include <string>
#include <vector>

#include "texture/texture_manager.hpp"

namespace mltc {

class ThreadPool;

/** Textures queued for one TextureManager; see file comment. */
class TextureBatch
{
  public:
    /** Queue into @p textures, which nothing else loads into meanwhile. */
    explicit TextureBatch(TextureManager &textures) : textures_(textures) {}

    /**
     * Queue texture @p name, whose base image @p make synthesizes.
     * @return the id load() gives it.
     */
    TextureId add(std::string name, std::function<Image()> make);

    /**
     * Synthesize every queued texture on @p pool plus the calling
     * thread (serially when null), then register them in add() order.
     * If a maker throws, nothing is registered and the exception of the
     * first such texture propagates.
     */
    void load(ThreadPool *pool);

  private:
    struct Pending
    {
        std::string name;
        std::function<Image()> make;
        TextureId tid; ///< what add() promised
    };

    TextureManager &textures_;
    std::vector<Pending> pending_;
};

} // namespace mltc

#endif // MLTC_TEXTURE_TEXTURE_BATCH_HPP
