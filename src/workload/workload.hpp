/**
 * @file
 * Workload container: a scene, its textures and a scripted camera
 * animation — the substitute for the paper's Village (E&S) and City
 * (UCLA) databases driven by the Intel Scene Manager (§3.1).
 */
#ifndef MLTC_WORKLOAD_WORKLOAD_HPP
#define MLTC_WORKLOAD_WORKLOAD_HPP

#include <memory>
#include <string>

#include "scene/camera.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene.hpp"
#include "texture/texture_manager.hpp"

namespace mltc {

class ThreadPool;

/** A complete workload: scene + textures + scripted animation. */
struct Workload
{
    std::string name;
    std::unique_ptr<TextureManager> textures;
    Scene scene;
    CameraPath path;
    int default_frames = 400; ///< paper: 411 (Village) / 525 (City)
    float fovy_degrees = 60.0f;
    float z_near = 0.5f;
    float z_far = 2000.0f;

    /**
     * Camera for frame @p frame of a @p total_frames animation at the
     * given aspect ratio.
     */
    Camera cameraAtFrame(int frame, int total_frames, float aspect) const;
};

} // namespace mltc

#endif // MLTC_WORKLOAD_WORKLOAD_HPP
