/**
 * @file
 * Tests for the procedural workloads: determinism, structure and the
 * statistical properties the paper relies on (texture sharing patterns,
 * camera continuity).
 */
#include <gtest/gtest.h>

#include <set>

#include "util/error.hpp"
#include "workload/city.hpp"
#include "workload/registry.hpp"
#include "workload/village.hpp"

namespace mltc {
namespace {

TEST(Registry, KnowsBothWorkloads)
{
    auto names = workloadNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "village");
    EXPECT_EQ(names[1], "city");
    EXPECT_THROW(buildWorkload("nope"), std::invalid_argument);
}

TEST(Registry, CheckWorkloadNameRejectsATypo)
{
    for (const std::string &name : allWorkloadNames())
        EXPECT_NO_THROW(checkWorkloadName(name)) << name;
    try {
        checkWorkloadName("villag");
        FAIL() << "an unknown workload name must be rejected";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::BadArgument);
        EXPECT_NE(std::string(e.what()).find("'villag'"), std::string::npos);
    }
}

TEST(Village, DeterministicInSeed)
{
    VillageParams p;
    p.houses = 10;
    p.trees = 5;
    Workload a = buildVillage(p);
    Workload b = buildVillage(p);
    EXPECT_EQ(a.scene.objects().size(), b.scene.objects().size());
    EXPECT_EQ(a.textures->totalHostBytes(), b.textures->totalHostBytes());
    // Object transforms identical.
    for (size_t i = 0; i < a.scene.objects().size(); ++i) {
        const Mat4 &ma = a.scene.objects()[i].transform;
        const Mat4 &mb = b.scene.objects()[i].transform;
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                ASSERT_FLOAT_EQ(ma.m[r][c], mb.m[r][c]);
    }
}

TEST(Village, SeedChangesPlacement)
{
    VillageParams p, q;
    p.houses = q.houses = 10;
    p.trees = q.trees = 5;
    q.seed = p.seed + 1;
    Workload a = buildVillage(p);
    Workload b = buildVillage(q);
    bool any_diff = false;
    size_t n = std::min(a.scene.objects().size(), b.scene.objects().size());
    for (size_t i = 0; i < n && !any_diff; ++i)
        any_diff = a.scene.objects()[i].transform.m[0][3] !=
                   b.scene.objects()[i].transform.m[0][3];
    EXPECT_TRUE(any_diff);
}

TEST(Village, SharesWallTexturesBetweenHouses)
{
    // The Village's signature property (§4.1): few materials, many
    // objects. Count distinct textures vs objects.
    Workload wl = buildVillage();
    std::set<TextureId> distinct;
    size_t textured_objects = 0;
    for (const auto &obj : wl.scene.objects()) {
        distinct.insert(obj.texture);
        ++textured_objects;
    }
    EXPECT_GT(textured_objects, 4 * distinct.size())
        << "Village must reuse textures across objects";
}

TEST(Village, AnimationPathStaysAboveGroundAndInBounds)
{
    Workload wl = buildVillage();
    for (int f = 0; f < 100; ++f) {
        CameraPose p = wl.path.atFrame(f, 100);
        EXPECT_GT(p.eye.y, 0.5f);
        EXPECT_LT(p.eye.y, 10.0f); // walk-through stays at eye level
        EXPECT_LT(std::abs(p.eye.x), 200.0f);
        EXPECT_GT((p.target - p.eye).length(), 0.01f);
    }
}

TEST(Village, DefaultFramesMatchPaper)
{
    Workload wl = buildVillage();
    EXPECT_EQ(wl.default_frames, 411);
}

TEST(City, OneFacadePerBuilding)
{
    // The City's signature property: facades are NOT shared between
    // buildings (paper: "does not substantially reuse textures between
    // objects").
    CityParams p;
    p.blocks_x = p.blocks_z = 4;
    Workload wl = buildCity(p);
    std::set<TextureId> facades;
    int buildings = 0;
    for (const auto &obj : wl.scene.objects()) {
        if (obj.name.rfind("building_", 0) == 0) {
            ++buildings;
            EXPECT_TRUE(facades.insert(obj.texture).second)
                << "facade texture shared between buildings";
        }
    }
    EXPECT_EQ(buildings, 16);
}

TEST(City, BuildingCountMatchesGrid)
{
    CityParams p;
    p.blocks_x = 3;
    p.blocks_z = 5;
    Workload wl = buildCity(p);
    int buildings = 0;
    for (const auto &obj : wl.scene.objects())
        if (obj.name.rfind("building_", 0) == 0)
            ++buildings;
    EXPECT_EQ(buildings, 15);
}

TEST(City, FlyThroughDescendsAndClimbs)
{
    Workload wl = buildCity();
    float start_y = wl.path.atFrame(0, 100).eye.y;
    float min_y = start_y;
    for (int f = 0; f < 100; ++f)
        min_y = std::min(min_y, wl.path.atFrame(f, 100).eye.y);
    float end_y = wl.path.atFrame(99, 100).eye.y;
    EXPECT_GT(start_y, 100.0f);
    EXPECT_LT(min_y, 60.0f); // swoops down between the towers
    EXPECT_GT(end_y, 100.0f);
}

TEST(City, DefaultFramesMatchPaper)
{
    Workload wl = buildCity();
    EXPECT_EQ(wl.default_frames, 525);
}

TEST(Workload, CameraAtFrameUsesPathEndpoints)
{
    Workload wl = buildVillage();
    Camera first = wl.cameraAtFrame(0, 50, 4.0f / 3.0f);
    CameraPose p0 = wl.path.sample(0.0f);
    EXPECT_NEAR(first.eye().x, p0.eye.x, 1e-3f);
    EXPECT_NEAR(first.eye().z, p0.eye.z, 1e-3f);
}

TEST(Workload, HostMemoryInPaperBallpark)
{
    // Paper Figure 4: Village ~14 MB loaded, City ~10 MB. Ours should
    // land within 2x of those.
    Workload v = buildVillage();
    Workload c = buildCity();
    double v_mb = static_cast<double>(v.textures->totalHostBytes()) /
                  (1024 * 1024);
    double c_mb = static_cast<double>(c.textures->totalHostBytes()) /
                  (1024 * 1024);
    EXPECT_GT(v_mb, 7.0);
    EXPECT_LT(v_mb, 28.0);
    EXPECT_GT(c_mb, 5.0);
    EXPECT_LT(c_mb, 20.0);
    // And the Village pool should be bigger than the City's.
    EXPECT_GT(v_mb, c_mb);
}

} // namespace
} // namespace mltc
