/**
 * @file
 * Differential for the piped MultiConfigRunner: with a ThreadPool each
 * simulator consumes the frame's stream through its own SpanPipe on a
 * worker. For every `cache_explorer --sweep` candidate set over the
 * tiny Village this asserts that
 *
 *  - one runner on a 4-worker pool,
 *  - one runner without a pool (the rasterizer's thread feeds every
 *    simulator), and
 *  - one single-simulator runner per candidate
 *
 * give identical FrameRows and identical snapshot bytes (the runner
 * checkpoint, and each simulator's own state). A simulator that throws
 * mid-stream on a worker is quarantined at that frame and leaves the
 * other simulators' rows untouched, and TextureManager::layout() stays
 * consistent under concurrent binds.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "obs/observability.hpp"
#include "sim/multi_config_runner.hpp"
#include "texture/procedural.hpp"
#include "util/serializer.hpp"
#include "util/thread_pool.hpp"
#include "workload/village.hpp"

namespace mltc {
namespace {

Workload
tiny()
{
    VillageParams p;
    p.houses = 4;
    p.trees = 2;
    p.extent = 80.0f;
    p.ground_texture_size = 64;
    p.wall_texture_size = 64;
    return buildVillage(p);
}

DriverConfig
driver(int frames)
{
    DriverConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.filter = FilterMode::Trilinear;
    cfg.frames = frames;
    return cfg;
}

// PID-suffixed: ctest runs cases as parallel processes.
std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The snapshot bytes of one simulator's state. */
std::string
simBytes(const CacheSim &sim)
{
    const std::string path = tempPath("piped_sim.snap");
    SnapshotWriter w(path);
    sim.save(w);
    w.finish();
    std::string bytes = slurp(path);
    std::remove(path.c_str());
    return bytes;
}

/** What one runner left behind. */
struct RunResult
{
    std::vector<FrameRow> rows;
    std::vector<std::string> sims; ///< per-simulator snapshot bytes
    std::string checkpoint;        ///< saveCheckpoint() bytes
    RunManifest manifest;
};

RunResult
runCandidates(const std::vector<SweepCandidate> &candidates,
              ThreadPool *pool, int frames)
{
    Workload wl = tiny();
    MultiConfigRunner runner(wl, driver(frames), pool);
    for (const SweepCandidate &c : candidates)
        runner.addSim(c.config, c.label);
    RunResult out;
    out.manifest = runner.runSupervised(ResilienceConfig{});
    out.rows = runner.rows();
    for (const auto &sim : runner.sims())
        out.sims.push_back(simBytes(*sim));
    const std::string path = tempPath("piped_run.snap");
    runner.saveCheckpoint(path, static_cast<uint32_t>(frames));
    out.checkpoint = slurp(path);
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    return out;
}

void
expectStatsEqual(const CacheFrameStats &p, const CacheFrameStats &q,
                 const std::string &at)
{
    EXPECT_EQ(p.accesses, q.accesses) << at;
    EXPECT_EQ(p.l1_misses, q.l1_misses) << at;
    EXPECT_EQ(p.l2_full_hits, q.l2_full_hits) << at;
    EXPECT_EQ(p.l2_partial_hits, q.l2_partial_hits) << at;
    EXPECT_EQ(p.l2_full_misses, q.l2_full_misses) << at;
    EXPECT_EQ(p.host_bytes, q.host_bytes) << at;
    EXPECT_EQ(p.l2_read_bytes, q.l2_read_bytes) << at;
    EXPECT_EQ(p.tlb_probes, q.tlb_probes) << at;
    EXPECT_EQ(p.tlb_hits, q.tlb_hits) << at;
    EXPECT_EQ(p.host_retries, q.host_retries) << at;
    EXPECT_EQ(p.host_failures, q.host_failures) << at;
    EXPECT_EQ(p.degraded_accesses, q.degraded_accesses) << at;
}

/** Simulator @p a_sim of @p a against simulator @p b_sim of @p b. */
void
expectSimRowsEqual(const std::vector<FrameRow> &a, size_t a_sim,
                   const std::vector<FrameRow> &b, size_t b_sim,
                   const std::string &ctx)
{
    ASSERT_EQ(a.size(), b.size()) << ctx;
    for (size_t i = 0; i < a.size(); ++i) {
        const std::string at = ctx + " frame " + std::to_string(i);
        EXPECT_EQ(a[i].frame, b[i].frame) << at;
        EXPECT_EQ(a[i].raster.texel_accesses, b[i].raster.texel_accesses)
            << at;
        EXPECT_EQ(a[i].raster.pixels_textured, b[i].raster.pixels_textured)
            << at;
        expectStatsEqual(a[i].sims[a_sim], b[i].sims[b_sim], at);
    }
}

TEST(PipedRunner, EveryCandidateSetMatchesSerialAndSingleSimRuns)
{
    const int frames = 3;
    ThreadPool pool(4);
    for (const char *sweep : {"l1", "l2", "l2tile", "tlb", "policy",
                              "faults"}) {
        const std::vector<SweepCandidate> candidates =
            sweepCandidates(sweep, HostPathConfig{}, false);
        const RunResult piped = runCandidates(candidates, &pool, frames);
        const RunResult direct = runCandidates(candidates, nullptr, frames);
        const std::string ctx = std::string("--sweep ") + sweep;

        EXPECT_EQ(piped.manifest.quarantinedCount(), 0u) << ctx;
        EXPECT_EQ(piped.checkpoint, direct.checkpoint)
            << ctx << ": checkpoint bytes differ";
        ASSERT_EQ(piped.sims.size(), candidates.size()) << ctx;
        for (size_t s = 0; s < candidates.size(); ++s) {
            const std::string at = ctx + " sim '" + candidates[s].label + "'";
            expectSimRowsEqual(piped.rows, s, direct.rows, s, at);
            EXPECT_EQ(piped.sims[s], direct.sims[s]) << at;

            const RunResult alone =
                runCandidates({candidates[s]}, nullptr, frames);
            expectSimRowsEqual(piped.rows, s, alone.rows, 0, at + " alone");
            EXPECT_EQ(piped.sims[s], alone.sims[0]) << at << " alone";
        }
    }
}

/**
 * Runs "steady-pull", optionally "flaky" and "steady-l2" on @p pool. At
 * the end of frame 0 the ground switches to a texture loaded after the
 * flaky simulator's L2 page table was built, so from frame 1 on its
 * bindTexture throws (unknown texture) while the others carry on.
 */
RunResult
runWithFlaky(bool with_flaky, ThreadPool *pool)
{
    const int frames = 3;
    Workload wl = tiny();
    MultiConfigRunner runner(wl, driver(frames), pool);
    runner.addSim(CacheSimConfig::pull(2 << 10), "steady-pull");
    if (with_flaky)
        runner.addSim(CacheSimConfig::twoLevel(2 << 10, 1 << 20), "flaky");
    const TextureId late = wl.textures->load(
        "late", MipPyramid(makeChecker(64, 8, 0xff0000ffu, 0xffffffffu)));
    runner.addSim(CacheSimConfig::twoLevel(2 << 10, 1 << 20), "steady-l2");

    RunResult out;
    out.manifest = runner.runSupervised(ResilienceConfig{},
                                        [&](const FrameRow &row) {
                                            if (row.frame == 0)
                                                wl.scene.object(0).texture =
                                                    late;
                                        });
    out.rows = runner.rows();
    return out;
}

TEST(PipedRunner, QuarantineOnAWorkerLeavesTheOtherRowsUnchanged)
{
    ThreadPool pool(4);
    // The quarantine's event and flight dump run on the worker that
    // caught the throw; a tracer and a flight recorder are installed so
    // a race there shows under the thread sanitizer.
    const std::string prefix = tempPath("piped_flaky");
    ObsConfig oc;
    oc.trace_path = prefix + ".trace.json";
    oc.flight_out = prefix;
    Observability obs(oc);
    const RunResult with = runWithFlaky(true, &pool);
    obs.close();
    EXPECT_NE(slurp(prefix + ".flight/trace.json").find("sim.quarantined"),
              std::string::npos);
    std::filesystem::remove_all(prefix + ".flight");
    std::remove(oc.trace_path.c_str());

    const RunResult without = runWithFlaky(false, nullptr);

    ASSERT_EQ(with.manifest.entries.size(), 3u);
    EXPECT_EQ(with.manifest.outcome, RunOutcome::Completed);
    const ManifestEntry &flaky = with.manifest.entries[1];
    EXPECT_EQ(flaky.label, "flaky");
    EXPECT_TRUE(flaky.quarantined);
    EXPECT_EQ(flaky.quarantined_at, 1);
    EXPECT_FALSE(with.manifest.entries[0].quarantined);
    EXPECT_FALSE(with.manifest.entries[2].quarantined);

    // The flaky simulator consumed frame 0 and nothing after its throw.
    ASSERT_EQ(with.rows.size(), 3u);
    EXPECT_GT(with.rows[0].sims[1].accesses, 0u);
    EXPECT_EQ(with.rows[2].sims[1].accesses, 0u);

    expectSimRowsEqual(with.rows, 0, without.rows, 0, "steady-pull");
    expectSimRowsEqual(with.rows, 2, without.rows, 1, "steady-l2");
}

TEST(TextureManagerConcurrency, LayoutIsSafeUnderConcurrentBinds)
{
    Workload wl = tiny();
    TextureManager &textures = *wl.textures;
    const std::vector<TileSpec> specs = {
        {16, 4, true}, {16, 8, true}, {8, 4}, {16, 4}, {32, 4}};
    const size_t n = textures.textureCount();

    // Every thread asks for every layout, each in its own order; all
    // must get the one cached instance per (texture, spec).
    constexpr size_t kThreads = 4;
    const size_t count = n * specs.size();
    std::vector<std::vector<const TiledLayout *>> seen(
        kThreads, std::vector<const TiledLayout *>(count, nullptr));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (size_t k = 0; k < count; ++k) {
                const size_t i = t % 2 ? count - 1 - k : (k + t) % count;
                seen[t][i] = &textures.layout(
                    static_cast<TextureId>(i / specs.size() + 1),
                    specs[i % specs.size()]);
            }
        });
    for (std::thread &th : threads)
        th.join();

    for (size_t i = 0; i < count; ++i) {
        const TextureId tid = static_cast<TextureId>(i / specs.size() + 1);
        const TiledLayout &l = *seen[0][i];
        EXPECT_EQ(&l, &textures.layout(tid, specs[i % specs.size()]));
        EXPECT_EQ(l.totalL2Blocks(),
                  TiledLayout(textures.texture(tid).pyramid.width(),
                              textures.texture(tid).pyramid.height(),
                              textures.texture(tid).pyramid.levels(),
                              specs[i % specs.size()])
                      .totalL2Blocks());
        for (size_t t = 1; t < kThreads; ++t)
            EXPECT_EQ(seen[t][i], seen[0][i]) << "thread " << t;
    }
}

} // namespace
} // namespace mltc
