#include "sim/animation_driver.hpp"

namespace mltc {

FrameStats
runAnimation(const Workload &workload, const DriverConfig &config,
             TexelAccessSink *sink, const FrameCallback &per_frame)
{
    Rasterizer raster(config.width, config.height);
    raster.setFilter(config.filter);
    raster.setSink(sink);
    raster.setZPrepass(config.z_prepass);

    const int frames =
        config.frames > 0 ? config.frames : workload.default_frames;
    const float aspect = static_cast<float>(config.width) /
                         static_cast<float>(config.height);

    FrameStats total;
    for (int f = 0; f < frames; ++f) {
        Camera cam = workload.cameraAtFrame(f, frames, aspect);
        FrameStats fs = raster.renderFrame(workload.scene, cam,
                                           *workload.textures);
        total.objects_visible += fs.objects_visible;
        total.triangles_in += fs.triangles_in;
        total.triangles_drawn += fs.triangles_drawn;
        total.pixels_textured += fs.pixels_textured;
        total.texel_accesses += fs.texel_accesses;
        if (per_frame)
            per_frame(f, fs);
    }
    return total;
}

} // namespace mltc
