#include "workload/terrain.hpp"

#include <cmath>

#include "texture/procedural.hpp"
#include "texture/texture_batch.hpp"
#include "util/rng.hpp"

namespace mltc {

namespace {

/** Terrain height function: smooth fractal hills. */
float
terrainHeight(float x, float z, float extent, float amplitude,
              uint64_t seed)
{
    // Sample the tiling fractal field in "texel" space.
    float u = (x / extent + 0.5f) * 1024.0f;
    float v = (z / extent + 0.5f) * 1024.0f;
    float n = fractalNoise(static_cast<int32_t>(u), static_cast<int32_t>(v),
                           1024, seed, 5);
    return (n - 0.35f) * amplitude;
}

/**
 * Satellite-style composite image: grass valleys, rocky slopes and
 * snowy peaks driven by the same height field so the texture visually
 * matches the geometry.
 */
Image
makeSatellite(uint32_t size, float extent, float amplitude, uint64_t seed)
{
    Image img(size, size);
    for (uint32_t y = 0; y < size; ++y) {
        for (uint32_t x = 0; x < size; ++x) {
            float wx = (static_cast<float>(x) / static_cast<float>(size) -
                        0.5f) *
                       extent;
            float wz = (static_cast<float>(y) / static_cast<float>(size) -
                        0.5f) *
                       extent;
            float h = terrainHeight(wx, wz, extent, amplitude, seed);
            float t = clampf(h / amplitude + 0.35f, 0.0f, 1.0f);
            float detail = fractalNoise(static_cast<int32_t>(x),
                                        static_cast<int32_t>(y), size,
                                        seed ^ 0x7777ull, 4);
            Vec3 c;
            if (t < 0.45f)
                c = lerp(Vec3{0.16f, 0.38f, 0.12f}, Vec3{0.35f, 0.45f, 0.2f},
                         detail);
            else if (t < 0.75f)
                c = lerp(Vec3{0.45f, 0.4f, 0.33f}, Vec3{0.55f, 0.5f, 0.45f},
                         detail);
            else
                c = lerp(Vec3{0.85f, 0.87f, 0.9f}, Vec3{1.0f, 1.0f, 1.0f},
                         detail);
            auto to8 = [](float v) {
                return static_cast<uint8_t>(clampf(v, 0.0f, 1.0f) * 255.0f);
            };
            img.setTexel(x, y, packRgba(to8(c.x), to8(c.y), to8(c.z)));
        }
    }
    return img;
}

} // namespace

Workload
buildTerrain(const TerrainParams &params, ThreadPool *pool)
{
    Workload wl;
    wl.name = "terrain";
    wl.default_frames = params.default_frames;
    wl.z_far = 4000.0f;
    wl.textures = std::make_unique<TextureManager>();
    TextureBatch batch(*wl.textures);
    Rng rng(params.seed);

    // Queued with their seeds; synthesized at the end of the build.
    TextureId satellite = batch.add("satellite", [&params] {
        return makeSatellite(params.satellite_texture_size, params.extent,
                             params.height_amplitude, params.seed);
    });
    TextureId rock =
        batch.add("rock", [s = rng.next()] { return makeStone(256, s); });
    TextureId sky =
        batch.add("sky", [s = rng.next()] { return makeSky(512, s); });

    Scene &scene = wl.scene;

    // Heightfield: a displaced grid with the satellite texture mapped
    // exactly once over the whole extent (uv in [0,1] -> no repetition,
    // the texture is never repeated, so nearby terrain cannot share blocks).
    Mesh field = makeGroundGrid(params.extent, params.grid, 1.0f);
    for (auto &v : field.vertices)
        v.position.y = terrainHeight(v.position.x, v.position.z,
                                     params.extent, params.height_amplitude,
                                     params.seed);
    scene.addObject(std::make_shared<Mesh>(std::move(field)),
                    Mat4::identity(), satellite, "terrain");

    // Detail boulders scattered on the slopes.
    auto boulder = std::make_shared<Mesh>(makeBox(6.0f, 4.0f, 5.0f, 0.3f));
    for (int i = 0; i < params.rocks; ++i) {
        float x = rng.uniformf(-params.extent * 0.45f, params.extent * 0.45f);
        float z = rng.uniformf(-params.extent * 0.45f, params.extent * 0.45f);
        float h = terrainHeight(x, z, params.extent, params.height_amplitude,
                                params.seed);
        Mat4 xf = Mat4::translate({x, h - 0.5f, z}) *
                  Mat4::rotateY(rng.uniformf(0.0f, 6.28f));
        scene.addObject(boulder, xf, rock, "rock_" + std::to_string(i));
    }

    // Sky walls.
    {
        float half = params.extent * 0.7f;
        auto wall = std::make_shared<Mesh>(
            makeQuadXY(params.extent * 1.4f, 260.0f, 1.0f, 1.0f));
        struct Placement
        {
            Vec3 pos;
            float yaw;
        } placements[4] = {
            {{0.0f, -30.0f, -half}, 0.0f},
            {{half, -30.0f, 0.0f}, -3.14159265f * 0.5f},
            {{0.0f, -30.0f, half}, 3.14159265f},
            {{-half, -30.0f, 0.0f}, 3.14159265f * 0.5f},
        };
        for (const auto &p : placements)
            scene.addObject(wall,
                            Mat4::translate(p.pos) * Mat4::rotateY(p.yaw),
                            sky, "sky");
    }

    // Terrain-following flight across the diagonal and back along the
    // other diagonal: a wide swath of unique texture enters the view
    // every frame.
    float half = params.extent * 0.42f;
    auto fly = [&](float x, float z, float clearance, float lx, float lz) {
        float h = terrainHeight(x, z, params.extent, params.height_amplitude,
                                params.seed);
        float lh = terrainHeight(lx, lz, params.extent,
                                 params.height_amplitude, params.seed);
        wl.path.addKey({x, h + clearance, z}, {lx, lh + 6.0f, lz});
    };
    fly(-half, -half, 60.0f, 0.0f, 0.0f);
    fly(-half * 0.5f, -half * 0.5f, 35.0f, half * 0.25f, half * 0.25f);
    fly(0.0f, 0.0f, 25.0f, half * 0.5f, half * 0.5f);
    fly(half * 0.5f, half * 0.5f, 30.0f, half, 0.0f);
    fly(half, 0.0f, 40.0f, half * 0.5f, -half * 0.5f);
    fly(half * 0.5f, -half * 0.5f, 30.0f, 0.0f, -half * 0.25f);
    fly(0.0f, -half * 0.4f, 45.0f, -half, half);
    fly(-half * 0.6f, half * 0.4f, 55.0f, -half, half);
    batch.load(pool);
    return wl;
}

} // namespace mltc
