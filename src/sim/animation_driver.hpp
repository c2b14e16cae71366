/**
 * @file
 * Drives a workload's scripted animation through the rasterizer frame by
 * frame, streaming texel accesses into an attached sink.
 */
#ifndef MLTC_SIM_ANIMATION_DRIVER_HPP
#define MLTC_SIM_ANIMATION_DRIVER_HPP

#include <functional>

#include "raster/rasterizer.hpp"
#include "workload/workload.hpp"

namespace mltc {

/** Animation run parameters. The paper renders at 1024x768. */
struct DriverConfig
{
    int width = 1024;
    int height = 768;
    FilterMode filter = FilterMode::Trilinear;
    int frames = 0; ///< 0 = the workload's default animation length
    bool z_prepass = false; ///< §6 future-work extension
};

/** Called after each frame with the frame index and raster counters. */
using FrameCallback = std::function<void(int frame, const FrameStats &)>;

/**
 * Render @p config.frames frames of @p workload, streaming accesses to
 * @p sink (may be null for a pure render).
 * @return aggregate raster stats summed over all frames.
 */
FrameStats runAnimation(const Workload &workload, const DriverConfig &config,
                        TexelAccessSink *sink,
                        const FrameCallback &per_frame = {});

} // namespace mltc

#endif // MLTC_SIM_ANIMATION_DRIVER_HPP
