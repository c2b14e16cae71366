/**
 * @file
 * Perspective-correct scanline rasterizer.
 *
 * Implements the fixed-function pipeline the paper's methodology assumes:
 * object-space frustum culling (in Scene), clip-space near/guard-band
 * clipping, perspective projection, and *scanline-order* rasterization
 * (the paper explicitly studies scanline rather than tiled order, §2.3)
 * with per-pixel MIP LOD selection from exact screen-space derivatives.
 * Each scanline span of a triangle goes to the TextureSampler in one
 * call (span_kernel.hpp), which emits the texel access stream the cache
 * simulators consume.
 *
 * By default every rasterized pixel is textured regardless of occlusion
 * (texturing-before-z, as 1998 pipelines did) — this is what gives the
 * paper's depth-complexity factor d. The z-prepass mode implements the
 * paper's first future-work item (§6): depth-test before texture fetch.
 */
#ifndef MLTC_RASTER_RASTERIZER_HPP
#define MLTC_RASTER_RASTERIZER_HPP

#include <cstdint>
#include <memory>

#include "raster/framebuffer.hpp"
#include "raster/sampler.hpp"
#include "scene/camera.hpp"
#include "scene/scene.hpp"

namespace mltc {

/** Per-frame pipeline counters. */
struct FrameStats
{
    uint64_t objects_visible = 0;   ///< objects passing frustum culling
    uint64_t triangles_in = 0;      ///< triangles submitted to setup
    uint64_t triangles_drawn = 0;   ///< triangles surviving cull/clip
    uint64_t pixels_textured = 0;   ///< textured pixel writes (R * d)
    uint64_t texel_accesses = 0;    ///< texel references emitted

    /** Depth complexity d = textured pixels / screen pixels. */
    double
    depthComplexity(int width, int height) const
    {
        return static_cast<double>(pixels_textured) /
               (static_cast<double>(width) * static_cast<double>(height));
    }
};

/** Scanline rasterizer bound to a fixed screen size. */
class Rasterizer
{
  public:
    /** Screen dimensions in pixels (the paper uses 1024x768). */
    Rasterizer(int width, int height);

    int width() const { return width_; }
    int height() const { return height_; }

    /** Select the texture filter used for all subsequent frames. */
    void setFilter(FilterMode mode) { sampler_.setFilter(mode); }

    /** Attach the texel access stream consumer (may be null). */
    void setSink(TexelAccessSink *sink) { sampler_.setSink(sink); }

    /**
     * Attach a framebuffer for shaded output; null disables shading
     * (simulation-only runs are much faster without it).
     */
    void setFramebuffer(Framebuffer *fb);

    /**
     * Enable the z-prepass extension: a depth-only pass runs first and
     * the texture pass only samples pixels that remain visible.
     */
    void setZPrepass(bool enabled) { z_prepass_ = enabled; }

    bool zPrepass() const { return z_prepass_; }

    /**
     * Cull, clip, project and rasterize the whole scene for one frame.
     * Texel accesses stream into the sink; shaded pixels into the
     * framebuffer when attached.
     */
    FrameStats renderFrame(const Scene &scene, const Camera &camera,
                           const TextureManager &textures);

  private:
    struct ClipVertex
    {
        Vec4 clip;
        Vec2 uv;
    };

    struct ScreenVertex
    {
        float x, y;      ///< pixel coordinates (center convention)
        float z;         ///< NDC depth for z-buffering
        float inv_w;     ///< 1/w (affine in screen space)
        float u_ow, v_ow; ///< u/w, v/w (affine in screen space)
    };

    enum class Pass { DepthOnly, Texture };

    void drawObject(const SceneObject &obj, const Camera &camera,
                    const TextureManager &textures, Pass pass,
                    FrameStats &stats, bool detail_pass = false);
    void rasterizeTriangle(const ScreenVertex &a, const ScreenVertex &b,
                           const ScreenVertex &c, Pass pass,
                           FrameStats &stats);

    int width_;
    int height_;
    TextureSampler sampler_;
    SpanScratch span_; ///< one span's per-pixel attributes
    Framebuffer *framebuffer_ = nullptr;
    std::unique_ptr<Framebuffer> internal_fb_; ///< for z-prepass w/o fb
    bool z_prepass_ = false;
};

} // namespace mltc

#endif // MLTC_RASTER_RASTERIZER_HPP
