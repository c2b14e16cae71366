#include "workload/village.hpp"

#include <cmath>

#include "texture/procedural.hpp"
#include "texture/texture_batch.hpp"
#include "util/rng.hpp"

namespace mltc {

namespace {

/** Sky walls around the scene: four big vertical quads facing inward. */
void
addSkyWalls(Scene &scene, TextureId sky, float extent, float height)
{
    float half = extent * 0.5f;
    // Each wall is an XY quad rotated to face the scene center.
    auto wall = std::make_shared<Mesh>(makeQuadXY(extent, height, 1.0f, 1.0f));
    struct Placement
    {
        Vec3 pos;
        float yaw;
    } placements[4] = {
        {{0.0f, 0.0f, -half}, 0.0f},
        {{half, 0.0f, 0.0f}, -3.14159265f * 0.5f},
        {{0.0f, 0.0f, half}, 3.14159265f},
        {{-half, 0.0f, 0.0f}, 3.14159265f * 0.5f},
    };
    for (const auto &p : placements) {
        Mat4 xf = Mat4::translate(p.pos) * Mat4::rotateY(p.yaw);
        scene.addObject(wall, xf, sky, "sky");
    }
}

} // namespace

Workload
buildVillage(const VillageParams &params, ThreadPool *pool)
{
    Workload wl;
    wl.name = "village";
    wl.default_frames = params.default_frames;
    wl.textures = std::make_unique<TextureManager>();
    TextureBatch batch(*wl.textures);
    Rng rng(params.seed);

    // --- Texture pool (heavily shared between objects) ----------------
    // Queued with their seeds; synthesized at the end of the build.
    const uint32_t gts = params.ground_texture_size;
    const uint32_t wts = params.wall_texture_size;
    const uint32_t small = wts / 2; // secondary materials at half size
    TextureId grass =
        batch.add("grass", [gts, s = rng.next()] { return makeGrass(gts, s); });
    TextureId dirt =
        batch.add("dirt", [small, s = rng.next()] { return makeDirt(small, s); });
    TextureId road =
        batch.add("road", [small, s = rng.next()] { return makeRoad(small, s); });
    TextureId sky =
        batch.add("sky", [gts, s = rng.next()] { return makeSky(gts, s); });

    Image (*const wall_makers[])(uint32_t, uint64_t) = {
        makeBrickWall, makePlaster, makeStone, makeWoodPlanks};
    std::vector<TextureId> walls;
    for (int i = 0; i < params.wall_texture_pool; ++i) {
        const auto make = wall_makers[i % 4];
        walls.push_back(batch.add("wall_" + std::to_string(i),
                                  [make, wts, s = rng.next()] {
                                      return make(wts, s);
                                  }));
    }
    std::vector<TextureId> roofs;
    for (int i = 0; i < params.roof_texture_pool; ++i)
        roofs.push_back(batch.add("roof_" + std::to_string(i),
                                  [small, s = rng.next()] {
                                      return makeRoofShingles(small, s);
                                  }));

    TextureId church_wall = batch.add(
        "church_wall", [gts, s = rng.next()] { return makeStone(gts, s); });
    TextureId foliage = batch.add(
        "foliage", [small, s = rng.next()] { return makeFoliage(small, s); });

    // --- Geometry ------------------------------------------------------
    Scene &scene = wl.scene;
    const float extent = params.extent;

    // Ground: grass with ~0.25 texture repeats per world unit.
    auto ground = std::make_shared<Mesh>(
        makeGroundGrid(extent, 8, extent * 0.25f));
    scene.addObject(ground, Mat4::identity(), grass, "ground");

    // Two crossing dirt streets through the village center.
    auto street = std::make_shared<Mesh>(
        makeQuadXZ(extent * 0.9f, 6.0f, extent * 0.25f, 1.5f));
    scene.addObject(street, Mat4::translate({0.0f, 0.02f, 0.0f}), road,
                    "street_ew");
    scene.addObject(street,
                    Mat4::translate({0.0f, 0.03f, 0.0f}) *
                        Mat4::rotateY(3.14159265f * 0.5f),
                    road, "street_ns");

    // Houses: rows flanking both streets, with jitter; wall and roof
    // textures drawn from the shared pools (inter-object reuse).
    std::vector<MeshPtr> house_bodies;
    std::vector<MeshPtr> house_roofs;
    for (int i = 0; i < 4; ++i) {
        float sx = 6.0f + static_cast<float>(i);
        float sy = 3.5f + 0.5f * static_cast<float>(i);
        float sz = 5.0f + 0.5f * static_cast<float>(i);
        house_bodies.push_back(
            std::make_shared<Mesh>(makeBox(sx, sy, sz, 0.25f)));
        house_roofs.push_back(std::make_shared<Mesh>(
            makeGabledRoof(sx + 0.8f, sz + 0.8f, sy, sy + 2.5f, 2.0f)));
    }

    int placed = 0;
    const float lot = 13.0f;
    const int ring_max = 6;
    for (int ring = 1; ring <= ring_max && placed < params.houses; ++ring) {
        for (int side = 0; side < 4 && placed < params.houses; ++side) {
            for (int slot = -ring; slot <= ring && placed < params.houses;
                 ++slot) {
                if (std::abs(slot) < 1 && ring == 1)
                    continue; // keep the central plaza open
                float along = static_cast<float>(slot) * lot +
                              rng.uniformf(-2.0f, 2.0f);
                float off = static_cast<float>(ring) * lot +
                            rng.uniformf(-2.0f, 2.0f);
                Vec3 pos;
                switch (side) {
                  case 0: pos = {along, 0.0f, off}; break;
                  case 1: pos = {along, 0.0f, -off}; break;
                  case 2: pos = {off, 0.0f, along}; break;
                  default: pos = {-off, 0.0f, along}; break;
                }
                if (std::abs(pos.x) > extent * 0.45f ||
                    std::abs(pos.z) > extent * 0.45f)
                    continue;
                float yaw = rng.uniformf(0.0f, 6.2831853f);
                Mat4 xf = Mat4::translate(pos) * Mat4::rotateY(yaw);
                int style = rng.range(0, 3);
                TextureId wall =
                    walls[static_cast<size_t>(rng.range(
                        0, params.wall_texture_pool - 1))];
                TextureId roof =
                    roofs[static_cast<size_t>(rng.range(
                        0, params.roof_texture_pool - 1))];
                scene.addObject(house_bodies[static_cast<size_t>(style)], xf,
                                wall, "house_" + std::to_string(placed));
                scene.addObject(house_roofs[static_cast<size_t>(style)], xf,
                                roof, "roof_" + std::to_string(placed));
                if (params.fences && rng.chance(0.7)) {
                    // Yard wall: adds the eye-level overdraw the dense
                    // Village artwork has (texture-before-z counts it).
                    auto fence = std::make_shared<Mesh>(
                        makeBox(10.5f + static_cast<float>(style), 1.1f,
                                9.0f + static_cast<float>(style), 0.4f));
                    TextureId fence_tex =
                        walls[static_cast<size_t>(rng.range(
                            0, params.wall_texture_pool - 1))];
                    scene.addObject(fence, xf, fence_tex,
                                    "fence_" + std::to_string(placed));
                }
                ++placed;
            }
        }
    }

    // Church: a tall stone box + steep roof on the plaza.
    auto church_body = std::make_shared<Mesh>(makeBox(12.0f, 10.0f, 9.0f, 0.2f));
    auto church_roof = std::make_shared<Mesh>(
        makeGabledRoof(13.0f, 10.0f, 10.0f, 16.0f, 3.0f));
    Mat4 church_xf = Mat4::translate({10.0f, 0.0f, 10.0f});
    scene.addObject(church_body, church_xf, church_wall, "church");
    scene.addObject(church_roof, church_xf,
                    roofs[0], "church_roof");

    // Trees: camera-independent crossed billboards.
    auto tree_quad = std::make_shared<Mesh>([] {
        Mesh m = makeQuadXY(4.0f, 5.0f, 1.0f, 1.0f);
        Mesh other = makeQuadXY(4.0f, 5.0f, 1.0f, 1.0f);
        transformMesh(other, Mat4::rotateY(3.14159265f * 0.5f));
        appendMesh(m, other);
        return m;
    }());
    for (int i = 0; i < params.trees; ++i) {
        float x = rng.uniformf(-extent * 0.45f, extent * 0.45f);
        float z = rng.uniformf(-extent * 0.45f, extent * 0.45f);
        if (std::abs(x) < 8.0f || std::abs(z) < 8.0f)
            continue; // keep the streets clear
        scene.addObject(tree_quad, Mat4::translate({x, 0.0f, z}), foliage,
                        "tree_" + std::to_string(i), /*two_sided=*/true);
    }

    // Village well on the plaza.
    auto well = std::make_shared<Mesh>(makeBox(2.0f, 1.2f, 2.0f, 0.5f));
    scene.addObject(well, Mat4::translate({-6.0f, 0.0f, -6.0f}), dirt,
                    "well");

    // Perimeter hills: grassy berms that fill the background behind the
    // houses (layered terrain is a large part of the Village artwork's
    // depth complexity under texture-before-z).
    auto hill = std::make_shared<Mesh>(
        makeGabledRoof(90.0f, 70.0f, 0.0f, 18.0f, 10.0f));
    for (int i = 0; i < 10; ++i) {
        float angle = static_cast<float>(i) * 0.628f;
        float r = extent * rng.uniformf(0.38f, 0.52f);
        Mat4 xf = Mat4::translate({std::cos(angle) * r, 0.0f,
                                   std::sin(angle) * r}) *
                  Mat4::rotateY(rng.uniformf(0.0f, 6.28f));
        scene.addObject(hill, xf, grass, "hill_" + std::to_string(i));
    }

    // Meadow patches: grass detail layers over the base ground.
    auto patch = std::make_shared<Mesh>(makeQuadXZ(36.0f, 36.0f, 9.0f, 9.0f));
    for (int i = 0; i < 24; ++i) {
        float x = rng.uniformf(-extent * 0.42f, extent * 0.42f);
        float z = rng.uniformf(-extent * 0.42f, extent * 0.42f);
        scene.addObject(patch, Mat4::translate({x, 0.05f, z}), grass,
                        "meadow_" + std::to_string(i));
    }

    addSkyWalls(scene, sky, extent * 1.2f, 120.0f);

    // --- Scripted walk-through ------------------------------------------
    // A loop through the streets at eye level, looking ahead.
    const float eye_h = 1.7f;
    struct Waypoint
    {
        float x, z;
    } route[] = {
        {-60.0f, -3.0f}, {-30.0f, -3.0f}, {-5.0f, -3.0f}, {3.0f, -12.0f},
        {3.0f, -40.0f},  {3.0f, -60.0f},  {12.0f, -40.0f}, {18.0f, -12.0f},
        {40.0f, -3.0f},  {62.0f, 3.0f},   {40.0f, 8.0f},   {12.0f, 3.0f},
        {3.0f, 20.0f},   {-3.0f, 45.0f},  {3.0f, 62.0f},   {-12.0f, 40.0f},
        {-25.0f, 12.0f}, {-45.0f, 3.0f},
    };
    const int n = static_cast<int>(sizeof(route) / sizeof(route[0]));
    for (int i = 0; i < n; ++i) {
        const auto &w = route[i];
        const auto &next = route[(i + 1) % n];
        wl.path.addKey({w.x, eye_h, w.z},
                       {next.x, eye_h * 0.9f, next.z});
    }
    batch.load(pool);
    return wl;
}

} // namespace mltc
