#include "workload/city.hpp"

#include <cmath>

#include "texture/procedural.hpp"
#include "texture/texture_batch.hpp"
#include "util/rng.hpp"

namespace mltc {

Workload
buildCity(const CityParams &params, ThreadPool *pool)
{
    Workload wl;
    wl.name = "city";
    wl.default_frames = params.default_frames;
    wl.z_far = 3000.0f;
    wl.textures = std::make_unique<TextureManager>();
    TextureBatch batch(*wl.textures);
    Rng rng(params.seed);

    const float span_x =
        static_cast<float>(params.blocks_x) * params.block_spacing;
    const float span_z =
        static_cast<float>(params.blocks_z) * params.block_spacing;
    const float extent = std::max(span_x, span_z) * 1.5f;

    // --- Shared infrastructure textures ---------------------------------
    // Queued with their seeds; synthesized at the end of the build.
    TextureId asphalt =
        batch.add("asphalt", [s = rng.next()] { return makeRoad(256, s); });
    TextureId concrete = batch.add(
        "concrete", [s = rng.next()] { return makePlaster(256, s); });
    TextureId rooftop =
        batch.add("rooftop", [s = rng.next()] { return makeStone(128, s); });
    TextureId sky =
        batch.add("sky", [s = rng.next()] { return makeSky(512, s); });

    Scene &scene = wl.scene;

    // Ground: concrete base with asphalt street grid laid over it.
    auto ground = std::make_shared<Mesh>(
        makeGroundGrid(extent, 8, extent * 0.2f));
    scene.addObject(ground, Mat4::identity(), concrete, "ground");

    auto street_x = std::make_shared<Mesh>(
        makeQuadXZ(span_x * 1.1f, 6.0f, span_x * 0.15f, 1.0f));
    auto street_z = std::make_shared<Mesh>(
        makeQuadXZ(6.0f, span_z * 1.1f, 1.0f, span_z * 0.15f));
    for (int j = 0; j <= params.blocks_z; ++j) {
        float z = (static_cast<float>(j) -
                   0.5f * static_cast<float>(params.blocks_z)) *
                  params.block_spacing;
        scene.addObject(street_x, Mat4::translate({0.0f, 0.02f, z}), asphalt,
                        "street_x" + std::to_string(j));
    }
    for (int i = 0; i <= params.blocks_x; ++i) {
        float x = (static_cast<float>(i) -
                   0.5f * static_cast<float>(params.blocks_x)) *
                  params.block_spacing;
        scene.addObject(street_z, Mat4::translate({x, 0.03f, 0.0f}), asphalt,
                        "street_z" + std::to_string(i));
    }

    // --- Buildings: one distinct facade texture per building ------------
    // (the paper observes the City repeats textures within objects but
    // does not share them between objects).
    int total = params.blocks_x * params.blocks_z;
    int big_every = total / std::max(params.large_facades, 1);
    int index = 0;
    for (int j = 0; j < params.blocks_z; ++j) {
        for (int i = 0; i < params.blocks_x; ++i, ++index) {
            float x = (static_cast<float>(i) + 0.5f -
                       0.5f * static_cast<float>(params.blocks_x)) *
                      params.block_spacing;
            float z = (static_cast<float>(j) + 0.5f -
                       0.5f * static_cast<float>(params.blocks_z)) *
                      params.block_spacing;
            float height = rng.uniformf(10.0f, 48.0f);
            // Downtown core: taller towards the center.
            float cx = x / span_x, cz = z / span_z;
            float core = 1.0f - 2.0f * std::sqrt(cx * cx + cz * cz);
            if (core > 0.0f)
                height += core * 42.0f;

            uint32_t stories =
                std::max(2u, static_cast<uint32_t>(height / 3.5f));
            bool big = big_every > 0 && (index % big_every) == 0;
            uint32_t tex_size =
                big ? params.facade_texture_size * 2 : params.facade_texture_size;
            TextureId facade = batch.add(
                "facade_" + std::to_string(index),
                [tex_size, s = rng.next(), floors = std::min(stories, 8u)] {
                    return makeFacade(tex_size, s, floors, 6);
                });

            float foot = params.footprint * rng.uniformf(0.8f, 1.05f);
            // Facade wraps once per ~8 world units -> window grid scale.
            auto body = std::make_shared<Mesh>(
                makeBox(foot, height, foot, 1.0f / 8.0f));
            Mat4 xf = Mat4::translate({x, 0.0f, z});
            scene.addObject(body, xf, facade,
                            "building_" + std::to_string(index));

            // Flat roof slab with the shared rooftop texture.
            auto roof = std::make_shared<Mesh>(
                makeQuadXZ(foot, foot, foot * 0.2f, foot * 0.2f));
            scene.addObject(roof, Mat4::translate({x, height + 0.05f, z}),
                            rooftop, "rooftop_" + std::to_string(index));
        }
    }

    // Sky walls (further out and taller for the aerial viewpoint).
    {
        float half = extent * 0.75f;
        auto wall = std::make_shared<Mesh>(
            makeQuadXY(extent * 1.5f, 140.0f, 1.0f, 1.0f));
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
        for (const auto &p : placements)
            scene.addObject(wall,
                            Mat4::translate(p.pos) * Mat4::rotateY(p.yaw),
                            sky, "sky");
    }

    // --- Scripted fly-through --------------------------------------------
    // Swoop in high over one corner, cross the downtown low between the
    // towers, climb out over the opposite corner, circle back.
    float hx = span_x * 0.5f, hz = span_z * 0.5f;
    wl.path.addKey({-hx * 1.6f, 160.0f, -hz * 1.6f}, {0.0f, 0.0f, 0.0f});
    wl.path.addKey({-hx * 1.0f, 110.0f, -hz * 1.0f}, {0.0f, 10.0f, 0.0f});
    wl.path.addKey({-hx * 0.5f, 70.0f, -hz * 0.4f},
                   {hx * 0.3f, 30.0f, hz * 0.3f});
    wl.path.addKey({-4.0f, 50.0f, -hz * 0.1f}, {4.0f, 40.0f, hz * 0.5f});
    wl.path.addKey({4.0f, 42.0f, hz * 0.25f}, {hx * 0.6f, 30.0f, hz * 0.8f});
    wl.path.addKey({hx * 0.5f, 60.0f, hz * 0.6f},
                   {hx * 1.2f, 30.0f, hz * 1.2f});
    wl.path.addKey({hx * 1.1f, 100.0f, hz * 1.1f}, {0.0f, 30.0f, 0.0f});
    wl.path.addKey({hx * 1.5f, 140.0f, 0.0f}, {0.0f, 20.0f, 0.0f});
    wl.path.addKey({hx * 1.1f, 160.0f, -hz * 1.1f}, {0.0f, 10.0f, 0.0f});
    batch.load(pool);
    return wl;
}

} // namespace mltc
