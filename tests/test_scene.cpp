/**
 * @file
 * Unit tests for Scene (object management, world bounds, culling),
 * Camera and CameraPath.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "scene/camera.hpp"
#include "scene/camera_path.hpp"
#include "scene/scene.hpp"

namespace mltc {
namespace {

constexpr float kPi = 3.14159265358979f;

MeshPtr
unitQuad()
{
    return std::make_shared<Mesh>(makeQuadXZ(2.0f, 2.0f, 1.0f, 1.0f));
}

TEST(Scene, AddObjectComputesWorldBounds)
{
    Scene scene;
    size_t idx = scene.addObject(unitQuad(), Mat4::translate({10, 0, 0}), 1);
    const SceneObject &obj = scene.objects()[idx];
    EXPECT_NEAR(obj.world_bounds.center().x, 10.0f, 1e-5f);
    EXPECT_NEAR(obj.world_bounds.min.x, 9.0f, 1e-5f);
}

TEST(Scene, RotatedBoundsAreConservative)
{
    Scene scene;
    scene.addObject(unitQuad(), Mat4::rotateY(kPi / 4.0f), 1);
    const SceneObject &obj = scene.objects()[0];
    // A 2x2 quad rotated 45 degrees spans sqrt(2) in each axis direction.
    EXPECT_NEAR(obj.world_bounds.max.x, std::sqrt(2.0f), 1e-4f);
}

TEST(Scene, TriangleCountSums)
{
    Scene scene;
    scene.addObject(unitQuad(), Mat4::identity(), 1);
    scene.addObject(unitQuad(), Mat4::identity(), 2);
    EXPECT_EQ(scene.triangleCount(), 4u);
}

TEST(Scene, BoundsCoverAllObjects)
{
    Scene scene;
    scene.addObject(unitQuad(), Mat4::translate({-5, 0, 0}), 1);
    scene.addObject(unitQuad(), Mat4::translate({5, 0, 0}), 1);
    Aabb b = scene.bounds();
    EXPECT_FLOAT_EQ(b.min.x, -6.0f);
    EXPECT_FLOAT_EQ(b.max.x, 6.0f);
}

TEST(Scene, CullingDropsObjectsBehindCamera)
{
    Scene scene;
    scene.addObject(unitQuad(), Mat4::translate({0, 0, -10}), 1, "front");
    scene.addObject(unitQuad(), Mat4::translate({0, 0, 10}), 1, "behind");

    Camera cam(kPi / 3.0f, 1.0f, 0.5f, 100.0f);
    cam.lookAt({0, 1, 0}, {0, 1, -1});
    auto visible = scene.visibleObjects(cam.frustum());
    ASSERT_EQ(visible.size(), 1u);
    EXPECT_EQ(scene.objects()[visible[0]].name, "front");
}

TEST(Scene, TwoSidedFlagStored)
{
    Scene scene;
    scene.addObject(unitQuad(), Mat4::identity(), 1, "ts", true);
    EXPECT_TRUE(scene.objects()[0].two_sided);
}

TEST(Camera, FrustumFollowsLookAt)
{
    Camera cam(kPi / 3.0f, 1.0f, 0.5f, 100.0f);
    cam.lookAt({0, 0, 0}, {0, 0, -1});
    Aabb front;
    front.extend({-1, -1, -11});
    front.extend({1, 1, -9});
    EXPECT_TRUE(cam.frustum().intersects(front));

    cam.lookAt({0, 0, 0}, {0, 0, 1}); // turn around
    EXPECT_FALSE(cam.frustum().intersects(front));
}

TEST(Camera, EyeAccessor)
{
    Camera cam(kPi / 3.0f, 1.0f, 0.5f, 100.0f);
    cam.lookAt({3, 4, 5}, {0, 0, 0});
    EXPECT_FLOAT_EQ(cam.eye().x, 3);
    EXPECT_FLOAT_EQ(cam.nearPlane(), 0.5f);
    EXPECT_FLOAT_EQ(cam.farPlane(), 100.0f);
}

TEST(CameraPath, EmptyPathGivesOrigin)
{
    CameraPath path;
    CameraPose p = path.sample(0.5f);
    EXPECT_FLOAT_EQ(p.eye.x, 0);
}

TEST(CameraPath, SingleKeyIsConstant)
{
    CameraPath path;
    path.addKey({1, 2, 3}, {4, 5, 6});
    for (float t : {0.0f, 0.5f, 1.0f}) {
        CameraPose p = path.sample(t);
        EXPECT_FLOAT_EQ(p.eye.x, 1);
        EXPECT_FLOAT_EQ(p.target.z, 6);
    }
}

TEST(CameraPath, HitsKeyframesAtEndpoints)
{
    CameraPath path;
    path.addKey({0, 0, 0}, {1, 0, 0});
    path.addKey({10, 0, 0}, {11, 0, 0});
    CameraPose start = path.sample(0.0f);
    CameraPose end = path.sample(1.0f);
    EXPECT_NEAR(start.eye.x, 0.0f, 1e-4f);
    EXPECT_NEAR(end.eye.x, 10.0f, 1e-4f);
}

TEST(CameraPath, InterpolationIsContinuous)
{
    CameraPath path;
    path.addKey({0, 0, 0}, {0, 0, -1});
    path.addKey({10, 0, 0}, {10, 0, -1});
    path.addKey({10, 0, 10}, {10, 0, 9});
    path.addKey({0, 0, 10}, {0, 0, 9});
    Vec3 prev = path.sample(0.0f).eye;
    for (int i = 1; i <= 100; ++i) {
        Vec3 cur = path.sample(static_cast<float>(i) / 100.0f).eye;
        EXPECT_LT((cur - prev).length(), 1.0f)
            << "discontinuity at t=" << static_cast<float>(i) / 100.0f;
        prev = cur;
    }
}

TEST(CameraPath, ClampsOutOfRangeT)
{
    CameraPath path;
    path.addKey({0, 0, 0}, {0, 0, -1});
    path.addKey({10, 0, 0}, {10, 0, -1});
    EXPECT_NEAR(path.sample(-0.5f).eye.x, 0.0f, 1e-4f);
    EXPECT_NEAR(path.sample(1.5f).eye.x, 10.0f, 1e-4f);
}

TEST(CameraPath, AtFrameSpansWholeAnimation)
{
    CameraPath path;
    path.addKey({0, 0, 0}, {0, 0, -1});
    path.addKey({10, 0, 0}, {10, 0, -1});
    EXPECT_NEAR(path.atFrame(0, 100).eye.x, 0.0f, 1e-4f);
    EXPECT_NEAR(path.atFrame(99, 100).eye.x, 10.0f, 1e-4f);
}

} // namespace
} // namespace mltc
