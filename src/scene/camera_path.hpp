/**
 * @file
 * Scripted camera animation: Catmull-Rom interpolated keyframes, the
 * substitute for the paper's scripted Village walk-through and City
 * fly-through (§3.1).
 */
#ifndef MLTC_SCENE_CAMERA_PATH_HPP
#define MLTC_SCENE_CAMERA_PATH_HPP

#include <vector>

#include "geom/vec.hpp"

namespace mltc {

/** Camera pose at one instant. */
struct CameraPose
{
    Vec3 eye;
    Vec3 target;
};

/**
 * Keyframed camera path. Sampling at t in [0, 1] interpolates eye and
 * target independently with centripetal-free uniform Catmull-Rom splines
 * (endpoints clamped), giving the smooth incremental viewpoint motion the
 * paper's inter-frame locality analysis assumes.
 */
class CameraPath
{
  public:
    CameraPath() = default;

    /** Append a keyframe. */
    void addKey(Vec3 eye, Vec3 target);

    /** Number of keyframes. */
    size_t keyCount() const { return keys_.size(); }

    /** The keyframes, in addKey() order. */
    const std::vector<CameraPose> &keys() const { return keys_; }

    /**
     * Pose at normalised time @p t in [0, 1] (clamped). Requires at
     * least one keyframe.
     */
    CameraPose sample(float t) const;

    /** Pose at frame @p frame of a @p total_frames animation. */
    CameraPose
    atFrame(int frame, int total_frames) const
    {
        float denom = static_cast<float>(total_frames > 1 ? total_frames - 1 : 1);
        return sample(static_cast<float>(frame) / denom);
    }

  private:
    std::vector<CameraPose> keys_;
};

} // namespace mltc

#endif // MLTC_SCENE_CAMERA_PATH_HPP
