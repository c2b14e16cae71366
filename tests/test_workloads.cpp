/**
 * @file
 * Tests for the procedural workloads: determinism, structure and the
 * statistical properties the paper relies on (texture sharing patterns,
 * camera continuity).
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <future>
#include <set>
#include <span>
#include <string>

#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "workload/city.hpp"
#include "workload/registry.hpp"
#include "workload/terrain.hpp"
#include "workload/village.hpp"

namespace mltc {
namespace {

/** FNV-1a over every level of @p pyr: its width, height and texels. */
uint64_t
pyramidHash(const MipPyramid &pyr)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint32_t v) {
        for (int b = 0; b < 4; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (uint32_t m = 0; m < pyr.levels(); ++m) {
        const Image &img = pyr.level(m);
        mix(img.width());
        mix(img.height());
        for (uint32_t t : img.data())
            mix(t);
    }
    return h;
}

/** One committed texture: its name and pyramidHash(), in tid order. */
struct TextureHash
{
    const char *name;
    uint64_t hash;
};

/**
 * Every texture of @p wl must match @p want (tid i + 1 is want[i]). On
 * a mismatch the failure prints the table the build produced.
 */
void
expectTextureHashes(const Workload &wl, std::span<const TextureHash> want)
{
    const TextureManager &tm = *wl.textures;
    std::string got;
    bool same = tm.textureCount() == want.size();
    for (TextureId tid = 1; tid <= tm.textureCount(); ++tid) {
        const TextureEntry &e = tm.texture(tid);
        const uint64_t h = pyramidHash(e.pyramid);
        char line[96];
        std::snprintf(line, sizeof line, "    {\"%s\", 0x%016" PRIx64 "ull},\n",
                      e.name.c_str(), h);
        got += line;
        if (same)
            same = e.name == want[tid - 1].name && h == want[tid - 1].hash;
    }
    EXPECT_TRUE(same) << wl.name << " textures differ; the build gave:\n"
                      << got;
}

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

// Hashes of every texture at default parameters, committed from the
// serial builders before texture synthesis moved onto a pool.
constexpr TextureHash kVillageTextures[] = {
    {"grass", 0xa53b4bd5259e1712ull},
    {"dirt", 0xfd5e1938d7c42679ull},
    {"road", 0x234902fceaedef07ull},
    {"sky", 0x04f2a7fa271c9a87ull},
    {"wall_0", 0xb76dc98b86f7b508ull},
    {"wall_1", 0xabf800ae0df34d23ull},
    {"wall_2", 0x991dfe2c863cb410ull},
    {"wall_3", 0x0d0dcdb50dc2e7a2ull},
    {"wall_4", 0x6ee54c6caf29f99bull},
    {"wall_5", 0xeca9516bf1ef9867ull},
    {"wall_6", 0x23de67a4118063ccull},
    {"wall_7", 0xe2f1dec5cf1ee956ull},
    {"roof_0", 0xe37049bd7c0079a3ull},
    {"roof_1", 0xf7b98d8d8c4d263aull},
    {"roof_2", 0x3885435674e4d9a5ull},
    {"roof_3", 0xad7e44f54288c2b1ull},
    {"church_wall", 0x60a5200e807ade4cull},
    {"foliage", 0x6de881d97a6aad9dull},
};

constexpr TextureHash kCityTextures[] = {
    {"asphalt", 0x0df385530d24d2adull},
    {"concrete", 0xab628a758f1f6c9full},
    {"rooftop", 0x7e7f0b28ae4a303aull},
    {"sky", 0x2ef7e115056809c8ull},
    {"facade_0", 0xe807ec8192226404ull},
    {"facade_1", 0xec61bb631227d7e7ull},
    {"facade_2", 0x8de4634e3fff90a5ull},
    {"facade_3", 0x98ee231bc2bc7cf5ull},
    {"facade_4", 0xe30c436a784eabb4ull},
    {"facade_5", 0xce36939aef51c2b1ull},
    {"facade_6", 0x97ae0fe25045c28full},
    {"facade_7", 0x400b44df0f4588dcull},
    {"facade_8", 0xd18e8fa7e569c910ull},
    {"facade_9", 0x60c7cf07f4b409e6ull},
    {"facade_10", 0xd93567ad2a347702ull},
    {"facade_11", 0x5a97528ef237c99aull},
    {"facade_12", 0xcfb518c2f5d28decull},
    {"facade_13", 0xd97b0248a9ea79e6ull},
    {"facade_14", 0xee8bce80b4b49708ull},
    {"facade_15", 0x47465b8cffe31bb0ull},
    {"facade_16", 0x968b9724ca03ce66ull},
    {"facade_17", 0x71a331c76954e57full},
    {"facade_18", 0x4a247414a3260353ull},
    {"facade_19", 0x3e6781597cad5089ull},
    {"facade_20", 0x7252afa88e62a1efull},
    {"facade_21", 0xd318d478b7be091bull},
    {"facade_22", 0x78f5128c4e74562cull},
    {"facade_23", 0x4d936e8d2b78d41cull},
    {"facade_24", 0xd80f1ee57984dba1ull},
    {"facade_25", 0xb9c2097baa0c1970ull},
    {"facade_26", 0xb0b8d9935e872d28ull},
    {"facade_27", 0x822cdab082f6030cull},
    {"facade_28", 0xae75d4c364d55837ull},
    {"facade_29", 0xea80a7073bd22a30ull},
    {"facade_30", 0x1ce157d9a5dd3cc0ull},
    {"facade_31", 0xc80542af87c57059ull},
    {"facade_32", 0xac11aab6b4fa9d73ull},
    {"facade_33", 0x657759c000ba0aa7ull},
    {"facade_34", 0x8dd3fee0063350ccull},
    {"facade_35", 0x82d2b8a4742b3e0cull},
    {"facade_36", 0x7081b3844ad80bc9ull},
    {"facade_37", 0x6887cd6d5d7e7631ull},
    {"facade_38", 0x31f7c2876de39a63ull},
    {"facade_39", 0xd905b6a43cea9e1cull},
    {"facade_40", 0x2e88007884464bb7ull},
    {"facade_41", 0x029aee6aaf4d8514ull},
    {"facade_42", 0xecfd7a78a0198fbaull},
    {"facade_43", 0x7bc7e32963c860feull},
    {"facade_44", 0xa1609b1b7bf50499ull},
    {"facade_45", 0x8e79a050740f8350ull},
    {"facade_46", 0xbe4dd10bae6384a8ull},
    {"facade_47", 0xdabcad8ddaa69acdull},
    {"facade_48", 0x262533e6d715caf3ull},
    {"facade_49", 0x01d28121fb76c980ull},
    {"facade_50", 0x1a6cf9a0b8dcc127ull},
    {"facade_51", 0x11d686b0a787c7d9ull},
    {"facade_52", 0xabf637b980876280ull},
    {"facade_53", 0x94ae0bf2800b5b44ull},
    {"facade_54", 0x290b85525b1f2e28ull},
    {"facade_55", 0x4f73ee345dc040c8ull},
    {"facade_56", 0x49ec3f5a20fc4838ull},
    {"facade_57", 0x0de17235ba6d5fe1ull},
    {"facade_58", 0x3c16935a5024be6aull},
    {"facade_59", 0x3d17bb3fe7766b02ull},
    {"facade_60", 0xf145051514c5e163ull},
    {"facade_61", 0xad1af068f4b8e8a9ull},
    {"facade_62", 0xd4111aa1b6d4b8c6ull},
    {"facade_63", 0xd14ac6eddbf83fc0ull},
    {"facade_64", 0xeaa2839b37cb921dull},
    {"facade_65", 0x3f5386f47e27156eull},
    {"facade_66", 0xfd57f90731501506ull},
    {"facade_67", 0x63991f0f030828daull},
    {"facade_68", 0xb3b071323e5b89eeull},
    {"facade_69", 0xf99ec292e897fc65ull},
    {"facade_70", 0xdce4d0c522ca6b58ull},
    {"facade_71", 0xafae2055990ed050ull},
    {"facade_72", 0x722215e370e4b87eull},
    {"facade_73", 0x88596053c43c27edull},
    {"facade_74", 0x4c0a162381c7a753ull},
    {"facade_75", 0x6abf6df20407db67ull},
    {"facade_76", 0xcd0355a1278b67ddull},
    {"facade_77", 0x93d56367d8455d49ull},
    {"facade_78", 0x267ed9d2742eedc4ull},
    {"facade_79", 0xd67669de96bde21dull},
    {"facade_80", 0x5834cdec29018048ull},
    {"facade_81", 0x085f97184d47a871ull},
    {"facade_82", 0xf8a4d56a094de043ull},
    {"facade_83", 0xeb5e3257819d8130ull},
    {"facade_84", 0xe7116e03d3c07915ull},
    {"facade_85", 0xbd88fe36cc2357feull},
    {"facade_86", 0x6ba40f5778da57b6ull},
    {"facade_87", 0x6609cee5e1326697ull},
    {"facade_88", 0x01eb31e6b555a3f1ull},
    {"facade_89", 0x7a86b6800b50fd5bull},
    {"facade_90", 0xe55c01e25168f3ccull},
    {"facade_91", 0x23c82cb861edeac5ull},
    {"facade_92", 0x117f2dd03bb13235ull},
    {"facade_93", 0x5ca30da1a105c3a3ull},
    {"facade_94", 0x71931b1775905929ull},
    {"facade_95", 0xe4d5be1e0c490c91ull},
    {"facade_96", 0x9fcefad5a598e08bull},
    {"facade_97", 0x9baccf8af419f014ull},
    {"facade_98", 0x85327088da4374f5ull},
    {"facade_99", 0x00d7f1c85513080dull},
};

constexpr TextureHash kTerrainTextures[] = {
    {"satellite", 0xd6d128467fe0489dull},
    {"rock", 0xb404978d8ee165ccull},
    {"sky", 0x48e153b32238f737ull},
};

/**
 * @p b must be @p a built again: the same textures (tid, name, host
 * bits, every texel of every level), scene objects, camera keys and
 * view parameters.
 */
void
expectSameWorkload(const Workload &a, const Workload &b,
                   const std::string &ctx)
{
    EXPECT_EQ(a.name, b.name) << ctx;
    EXPECT_EQ(a.default_frames, b.default_frames) << ctx;
    EXPECT_EQ(a.fovy_degrees, b.fovy_degrees) << ctx;
    EXPECT_EQ(a.z_near, b.z_near) << ctx;
    EXPECT_EQ(a.z_far, b.z_far) << ctx;

    ASSERT_EQ(a.textures->textureCount(), b.textures->textureCount()) << ctx;
    for (TextureId tid = 1; tid <= a.textures->textureCount(); ++tid) {
        const TextureEntry &x = a.textures->texture(tid);
        const TextureEntry &y = b.textures->texture(tid);
        const std::string at = ctx + " texture " + x.name;
        EXPECT_EQ(x.tid, y.tid) << at;
        EXPECT_EQ(x.name, y.name) << at;
        EXPECT_EQ(x.host_bits_per_texel, y.host_bits_per_texel) << at;
        EXPECT_EQ(x.loaded, y.loaded) << at;
        ASSERT_EQ(x.pyramid.levels(), y.pyramid.levels()) << at;
        for (uint32_t m = 0; m < x.pyramid.levels(); ++m) {
            EXPECT_EQ(x.pyramid.level(m).width(), y.pyramid.level(m).width())
                << at;
            EXPECT_TRUE(x.pyramid.level(m).data() == y.pyramid.level(m).data())
                << at << " level " << m;
        }
    }

    const auto &xo = a.scene.objects();
    const auto &yo = b.scene.objects();
    ASSERT_EQ(xo.size(), yo.size()) << ctx;
    for (size_t i = 0; i < xo.size(); ++i) {
        const std::string at = ctx + " object " + xo[i].name;
        EXPECT_EQ(xo[i].name, yo[i].name) << at;
        EXPECT_EQ(xo[i].texture, yo[i].texture) << at;
        EXPECT_EQ(xo[i].two_sided, yo[i].two_sided) << at;
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                EXPECT_EQ(xo[i].transform.m[r][c], yo[i].transform.m[r][c])
                    << at;
        const Mesh &xm = *xo[i].mesh;
        const Mesh &ym = *yo[i].mesh;
        EXPECT_EQ(xm.indices, ym.indices) << at;
        ASSERT_EQ(xm.vertices.size(), ym.vertices.size()) << at;
        for (size_t v = 0; v < xm.vertices.size(); ++v) {
            EXPECT_EQ(xm.vertices[v].position.x, ym.vertices[v].position.x) << at;
            EXPECT_EQ(xm.vertices[v].position.y, ym.vertices[v].position.y) << at;
            EXPECT_EQ(xm.vertices[v].position.z, ym.vertices[v].position.z) << at;
            EXPECT_EQ(xm.vertices[v].uv.x, ym.vertices[v].uv.x) << at;
            EXPECT_EQ(xm.vertices[v].uv.y, ym.vertices[v].uv.y) << at;
        }
    }

    const auto &xk = a.path.keys();
    const auto &yk = b.path.keys();
    ASSERT_EQ(xk.size(), yk.size()) << ctx;
    for (size_t k = 0; k < xk.size(); ++k) {
        EXPECT_EQ(xk[k].eye.x, yk[k].eye.x) << ctx << " key " << k;
        EXPECT_EQ(xk[k].eye.y, yk[k].eye.y) << ctx << " key " << k;
        EXPECT_EQ(xk[k].eye.z, yk[k].eye.z) << ctx << " key " << k;
        EXPECT_EQ(xk[k].target.x, yk[k].target.x) << ctx << " key " << k;
        EXPECT_EQ(xk[k].target.y, yk[k].target.y) << ctx << " key " << k;
        EXPECT_EQ(xk[k].target.z, yk[k].target.z) << ctx << " key " << k;
    }
}

TEST(WorkloadBuild, PoolBuildsEqualTheSerialBuild)
{
    // Terrain's one 2048^2 satellite texture is a single job; a smaller
    // one keeps the three-pool differential quick.
    TerrainParams terrain;
    terrain.satellite_texture_size = 256;
    const Workload village = buildVillage();
    const Workload city = buildCity();
    const Workload land = buildTerrain(terrain);
    for (unsigned workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        const std::string ctx = std::to_string(workers) + " workers: ";
        expectSameWorkload(village, buildVillage({}, &pool), ctx + "village");
        expectSameWorkload(city, buildCity({}, &pool), ctx + "city");
        expectSameWorkload(land, buildTerrain(terrain, &pool),
                           ctx + "terrain");
    }
    ThreadPool pool(2);
    expectSameWorkload(village, buildWorkload("village", &pool),
                       "buildWorkload");
}

TEST(WorkloadBuild, VillageBuildsFromInsideATaskOfItsPool)
{
    // The pool's only worker runs the build, so every texture falls to
    // it as parallelFor()'s caller; it must not wait for itself.
    ThreadPool pool(1);
    auto built = pool.submit([&pool] { return buildVillage({}, &pool); });
    ASSERT_EQ(built.wait_for(std::chrono::minutes(5)),
              std::future_status::ready);
    expectSameWorkload(buildVillage(), built.get(), "inside a pool task");
}

TEST(WorkloadTextures, VillageMatchesCommittedHashes)
{
    expectTextureHashes(buildVillage(), kVillageTextures);
}

TEST(WorkloadTextures, CityMatchesCommittedHashes)
{
    expectTextureHashes(buildCity(), kCityTextures);
}

TEST(WorkloadTextures, TerrainMatchesCommittedHashes)
{
    expectTextureHashes(buildTerrain(), kTerrainTextures);
}

} // namespace
} // namespace mltc
