#include "raster/rasterizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"

namespace mltc {

Rasterizer::Rasterizer(int width, int height)
    : width_(width), height_(height)
{
    if (width <= 0 || height <= 0)
        throw std::invalid_argument("Rasterizer: bad dimensions");
}

void
Rasterizer::setFramebuffer(Framebuffer *fb)
{
    framebuffer_ = fb;
    sampler_.setShading(fb != nullptr);
}

FrameStats
Rasterizer::renderFrame(const Scene &scene, const Camera &camera,
                        const TextureManager &textures)
{
    FrameStats stats;
    const uint64_t access_base = sampler_.accessCount();

    auto visible = scene.visibleObjects(camera.frustum());
    stats.objects_visible = visible.size();

    if (z_prepass_) {
        if (!framebuffer_ && !internal_fb_)
            internal_fb_ = std::make_unique<Framebuffer>(width_, height_);
        Framebuffer *depth_fb =
            framebuffer_ ? framebuffer_ : internal_fb_.get();
        depth_fb->clearDepth();
        // Depth-only pass: establish the front-most surface per pixel.
        ScopedTrace pass_scope("raster.depth_prepass", "raster");
        ScopedProfileStage prof_scope("raster.depth_prepass",
                                      /*with_counters=*/true);
        for (size_t idx : visible)
            drawObject(scene.objects()[idx], camera, textures,
                       Pass::DepthOnly, stats);
    }

    {
        ScopedTrace pass_scope("raster.texture_pass", "raster");
        ScopedProfileStage prof_scope("raster.texture_pass",
                                      /*with_counters=*/true);
        for (size_t idx : visible) {
            const SceneObject &obj = scene.objects()[idx];
            drawObject(obj, camera, textures, Pass::Texture, stats);
            // Multi-pass multitexturing: the detail layer re-rasterizes
            // the object bound to its second texture (as 1998 hardware
            // without single-pass multitexture did).
            if (obj.detail_texture != 0)
                drawObject(obj, camera, textures, Pass::Texture, stats,
                           /*detail_pass=*/true);
        }
    }

    sampler_.flushBatch();

    if (ChromeTraceWriter *t = globalTracer())
        t->recordAggregate("sampler.sample", sampler_.takeSampleNs() / 1000);

    stats.texel_accesses = sampler_.accessCount() - access_base;
    return stats;
}

void
Rasterizer::drawObject(const SceneObject &obj, const Camera &camera,
                       const TextureManager &textures, Pass pass,
                       FrameStats &stats, bool detail_pass)
{
    const TextureId tid = detail_pass ? obj.detail_texture : obj.texture;
    const float uv_scale = detail_pass ? obj.detail_uv_scale : 1.0f;
    if (tid == 0 || !obj.mesh)
        return;
    const TextureEntry &tex = textures.texture(tid);
    if (pass == Pass::Texture) {
        sampler_.bind(tex);
        tex_width_ = static_cast<float>(tex.pyramid.width());
        tex_height_ = static_cast<float>(tex.pyramid.height());
    }

    const Mat4 mvp = camera.viewProjection() * obj.transform;
    const Mesh &mesh = *obj.mesh;
    const float near_w = camera.nearPlane();

    // Transform all vertices once per object.
    std::vector<ClipVertex> transformed(mesh.vertices.size());
    for (size_t i = 0; i < mesh.vertices.size(); ++i) {
        transformed[i].clip = mvp * Vec4{mesh.vertices[i].position, 1.0f};
        transformed[i].uv = mesh.vertices[i].uv * uv_scale;
    }

    std::vector<ClipVertex> poly, scratch;

    for (size_t t = 0; t + 2 < mesh.indices.size(); t += 3) {
        if (pass == Pass::Texture)
            ++stats.triangles_in;

        poly.clear();
        poly.push_back(transformed[mesh.indices[t]]);
        poly.push_back(transformed[mesh.indices[t + 1]]);
        poly.push_back(transformed[mesh.indices[t + 2]]);

        // Trivial reject: all three behind the near plane.
        if (poly[0].clip.w < near_w && poly[1].clip.w < near_w &&
            poly[2].clip.w < near_w)
            continue;

        // Clip planes in clip space: near (w >= near_w), then a guard
        // band of 1.25x the frustum in x/y to bound screen coordinates,
        // and the far plane z <= w.
        auto clipPlane = [&](auto dist) {
            scratch.clear();
            size_t n = poly.size();
            for (size_t i = 0; i < n; ++i) {
                const ClipVertex &a = poly[i];
                const ClipVertex &b = poly[(i + 1) % n];
                float da = dist(a.clip);
                float db = dist(b.clip);
                if (da >= 0.0f)
                    scratch.push_back(a);
                if ((da >= 0.0f) != (db >= 0.0f)) {
                    float s = da / (da - db);
                    ClipVertex v;
                    v.clip = a.clip + (b.clip - a.clip) * s;
                    v.uv = a.uv + (b.uv - a.uv) * s;
                    scratch.push_back(v);
                }
            }
            poly.swap(scratch);
        };

        constexpr float kGuard = 1.25f;
        clipPlane([&](Vec4 v) { return v.w - near_w; });
        if (poly.size() < 3) continue;
        clipPlane([&](Vec4 v) { return v.x + kGuard * v.w; });
        if (poly.size() < 3) continue;
        clipPlane([&](Vec4 v) { return kGuard * v.w - v.x; });
        if (poly.size() < 3) continue;
        clipPlane([&](Vec4 v) { return v.y + kGuard * v.w; });
        if (poly.size() < 3) continue;
        clipPlane([&](Vec4 v) { return kGuard * v.w - v.y; });
        if (poly.size() < 3) continue;
        clipPlane([&](Vec4 v) { return v.w - v.z; });
        if (poly.size() < 3) continue;

        // Project to screen space.
        std::vector<ScreenVertex> screen(poly.size());
        for (size_t i = 0; i < poly.size(); ++i) {
            const Vec4 &c = poly[i].clip;
            float inv_w = 1.0f / c.w;
            screen[i].x = (c.x * inv_w * 0.5f + 0.5f) *
                          static_cast<float>(width_);
            screen[i].y = (0.5f - c.y * inv_w * 0.5f) *
                          static_cast<float>(height_);
            screen[i].z = c.z * inv_w;
            screen[i].inv_w = inv_w;
            screen[i].u_ow = poly[i].uv.x * inv_w;
            screen[i].v_ow = poly[i].uv.y * inv_w;
        }

        // Fan-triangulate the clipped polygon; backface-cull on signed
        // area (consistent across the fan since clipping preserves
        // winding). World-CCW triangles have *negative* screen-space
        // area because the screen y axis points down. The scanline fill
        // and the plane-equation gradients are winding-agnostic, so
        // two-sided objects simply skip the cull.
        for (size_t i = 1; i + 1 < screen.size(); ++i) {
            const ScreenVertex &a = screen[0];
            const ScreenVertex &b = screen[i];
            const ScreenVertex &c = screen[i + 1];
            float area2 = (b.x - a.x) * (c.y - a.y) -
                          (c.x - a.x) * (b.y - a.y);
            if (area2 == 0.0f)
                continue; // degenerate
            if (area2 > 0.0f && !obj.two_sided)
                continue; // backfacing
            if (pass == Pass::Texture)
                ++stats.triangles_drawn;
            rasterizeTriangle(a, b, c, pass, stats);
        }
    }
}

void
Rasterizer::rasterizeTriangle(const ScreenVertex &a, const ScreenVertex &b,
                              const ScreenVertex &c, Pass pass,
                              FrameStats &stats)
{
    // Screen-space plane gradients for the affine quantities 1/w, u/w,
    // v/w and z. For f with values f0,f1,f2 at the vertices:
    //   df/dx = ((f1-f0)(y2-y0) - (f2-f0)(y1-y0)) / area2
    //   df/dy = ((f2-f0)(x1-x0) - (f1-f0)(x2-x0)) / area2
    const float x10 = b.x - a.x, y10 = b.y - a.y;
    const float x20 = c.x - a.x, y20 = c.y - a.y;
    const float area2 = x10 * y20 - x20 * y10;
    if (area2 == 0.0f)
        return;
    // The plane-equation gradients are exact for either winding (the
    // sign cancels between numerator and area).
    const float inv_area = 1.0f / area2;

    auto gradX = [&](float f0, float f1, float f2) {
        return ((f1 - f0) * y20 - (f2 - f0) * y10) * inv_area;
    };
    auto gradY = [&](float f0, float f1, float f2) {
        return ((f2 - f0) * x10 - (f1 - f0) * x20) * inv_area;
    };

    const float wx = gradX(a.inv_w, b.inv_w, c.inv_w);
    const float wy = gradY(a.inv_w, b.inv_w, c.inv_w);
    const float ux = gradX(a.u_ow, b.u_ow, c.u_ow);
    const float uy = gradY(a.u_ow, b.u_ow, c.u_ow);
    const float vx = gradX(a.v_ow, b.v_ow, c.v_ow);
    const float vy = gradY(a.v_ow, b.v_ow, c.v_ow);
    const float zx = gradX(a.z, b.z, c.z);
    const float zy = gradY(a.z, b.z, c.z);

    const ScreenVertex *verts[3] = {&a, &b, &c};

    float ymin = std::min({a.y, b.y, c.y});
    float ymax = std::max({a.y, b.y, c.y});
    int y_start = std::max(0, static_cast<int>(std::ceil(ymin - 0.5f)));
    int y_end = std::min(height_ - 1,
                         static_cast<int>(std::floor(ymax - 0.5f)));

    const bool shade = framebuffer_ != nullptr;
    const bool prepass_filter = z_prepass_ && pass == Pass::Texture;
    Framebuffer *depth_fb =
        framebuffer_ ? framebuffer_ : internal_fb_.get();

    for (int py = y_start; py <= y_end; ++py) {
        const float yc = static_cast<float>(py) + 0.5f;

        // Find the span [xl, xr) from edge crossings at this scanline.
        float xl = std::numeric_limits<float>::max();
        float xr = std::numeric_limits<float>::lowest();
        for (int e = 0; e < 3; ++e) {
            const ScreenVertex &p = *verts[e];
            const ScreenVertex &q = *verts[(e + 1) % 3];
            if ((p.y <= yc && q.y > yc) || (q.y <= yc && p.y > yc)) {
                float s = (yc - p.y) / (q.y - p.y);
                float x = p.x + (q.x - p.x) * s;
                xl = std::min(xl, x);
                xr = std::max(xr, x);
            }
        }
        if (xl >= xr)
            continue;

        int px_start = std::max(0, static_cast<int>(std::ceil(xl - 0.5f)));
        int px_end = std::min(width_ - 1,
                              static_cast<int>(std::ceil(xr - 0.5f)) - 1);
        if (px_start > px_end)
            continue;

        // Evaluate the affine attributes at the first pixel center from
        // the plane equations, then step incrementally across the span.
        const float dx0 = static_cast<float>(px_start) + 0.5f - a.x;
        const float dy0 = yc - a.y;
        float W = a.inv_w + wx * dx0 + wy * dy0;
        float U = a.u_ow + ux * dx0 + uy * dy0;
        float V = a.v_ow + vx * dx0 + vy * dy0;
        float Z = a.z + zx * dx0 + zy * dy0;

        for (int px = px_start; px <= px_end;
             ++px, W += wx, U += ux, V += vx, Z += zx) {
            if (W <= 0.0f)
                continue; // numerical guard; near clip keeps w positive
            const float w = 1.0f / W;
            if (pass == Pass::DepthOnly) {
                depth_fb->depthOnly(px, py, Z);
                continue;
            }
            if (prepass_filter && !depth_fb->depthMatches(px, py, Z))
                continue; // occluded: skip the texture fetch entirely

            const float u = U * w;
            const float v = V * w;

            // Exact screen-space derivatives of the texel coordinates:
            // d(u)/dx = (Ux - u*Wx) / W, scaled to base-level texels.
            const float dudx = (ux - u * wx) * w * tex_width_;
            const float dvdx = (vx - v * wx) * w * tex_height_;
            const float dudy = (uy - u * wy) * w * tex_width_;
            const float dvdy = (vy - v * wy) * w * tex_height_;
            const float rho2 = std::max(dudx * dudx + dvdx * dvdx,
                                        dudy * dudy + dvdy * dvdy);
            // lambda = log2(sqrt(rho2)) = 0.5 * log2(rho2)
            const float lambda =
                rho2 > 0.0f ? 0.5f * std::log2(rho2) : -16.0f;

            sampler_.beginPixel(static_cast<uint32_t>(px),
                                static_cast<uint32_t>(py));
            const uint32_t color = sampler_.sample(u, v, lambda);
            ++stats.pixels_textured;
            if (shade)
                framebuffer_->shade(px, py, Z, color);
        }
        // One batch per scanline keeps spans cache-resident in the sink
        // while preserving left-to-right, top-to-bottom event order.
        sampler_.flushBatch();
    }
}

} // namespace mltc
