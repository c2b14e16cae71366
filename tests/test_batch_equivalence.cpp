/**
 * @file
 * Differential harness for the batched access path
 * (docs/batched_access.md): the staged loop of CacheSim::accessBatch()
 * must be *byte-identical* — every CacheFrameStats counter, every
 * snapshot payload byte, every reuse-profiler export — to the literal
 * per-texel reference loop kept here (BatchReferencePeer: coalescing
 * filter, L1 lookup, observers and CacheSim::handleMiss() one texel at
 * a time) over real workloads (Village, City), a synthetic L2
 * thrasher, every filter mode, fault injection, 3C classification,
 * reuse profiling with screen and texture heatmaps, and TLB modelling;
 * plus property/fuzz coverage of accessBatch() itself (empty spans,
 * length-1 spans, spans ending inside and past the staging chunk,
 * MIP/texture boundaries inside one span, duplicate texels against the
 * coalescing filter, spans of pixel markers only).
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_sim.hpp"
#include "core/push_model.hpp"
#include "core/set_assoc_l2.hpp"
#include "obs/reuse_profiler.hpp"
#include "raster/rasterizer.hpp"
#include "trace/working_set_collector.hpp"
#include "util/rng.hpp"
#include "util/serializer.hpp"
#include "workload/city.hpp"
#include "workload/village.hpp"

namespace mltc {

/**
 * Test-only friend of CacheSim holding the per-texel reference loop:
 * the Figure 7 front end written one texel at a time against the
 * simulator's L1 and its shared miss path handleMiss(), which the
 * staged loop of accessBatch() must match byte for byte.
 */
class BatchReferencePeer
{
  public:
    /**
     * Each texel, and each distinct tile corner of a quad, through
     * texel(); each pixel marker to the reuse profiler.
     */
    static void
    perTexel(CacheSim &sim, std::span<const TexelRef> refs)
    {
        for (const TexelRef &r : refs) {
            switch (r.kind) {
              case TexelRef::kTexel:
                ++sim.frame_.accesses;
                texel(sim, r.x0, r.y0, r.mip);
                break;
              case TexelRef::kQuad: {
                sim.frame_.accesses += 4;
                // The bilinear footprint spans at most 2x2 L1 tiles:
                // each distinct tile corner goes through once.
                const uint32_t sh = sim.l1_shift_;
                const bool dx = (r.x0 >> sh) != (r.x1 >> sh);
                const bool dy = (r.y0 >> sh) != (r.y1 >> sh);
                texel(sim, r.x0, r.y0, r.mip);
                if (dx)
                    texel(sim, r.x1, r.y0, r.mip);
                if (dy) {
                    texel(sim, r.x0, r.y1, r.mip);
                    if (dx)
                        texel(sim, r.x1, r.y1, r.mip);
                }
                break;
              }
              default:
                if (sim.profiler_)
                    sim.profiler_->beginPixel(r.x0, r.y0);
                break;
            }
        }
    }

  private:
    /**
     * One texel: the one-entry coalescing filter (a repeat of the last
     * serviced tile is a guaranteed hit and reaches nobody), the L1
     * lookup, the reuse profiler and the L1 3C classifier, then on a
     * miss handleMiss().
     */
    static void
    texel(CacheSim &sim, uint32_t x, uint32_t y, uint32_t mip)
    {
        const uint64_t tile = sim.tileKeyOf(x, y, mip);
        if (tile == sim.last_tile_)
            return;
        const uint64_t key = sim.l1_layout_->blockKeyOf(sim.bound_, x, y, mip);
        const bool l1_hit = sim.l1_.lookup(key);
        if (sim.profiler_)
            sim.profiler_->onL1Access(key, l1_hit, x, y, mip);
        if (sim.l1_class_) {
            const auto c = sim.l1_class_->access(
                key, key, l1_hit, sim.bound_, mip,
                sim.l2p_ ? sim.cfg_.l1.lineBytes() : sim.host_sector_bytes_);
            if (c) {
                switch (*c) {
                  case MissClass::Compulsory:
                    ++sim.frame_.l1_compulsory;
                    break;
                  case MissClass::Capacity:
                    ++sim.frame_.l1_capacity;
                    break;
                  case MissClass::Conflict:
                    ++sim.frame_.l1_conflict;
                    break;
                }
            }
        }
        if (l1_hit) {
            sim.last_tile_ = tile;
            return;
        }
        ++sim.frame_.l1_misses;
        sim.handleMiss(x, y, mip, key, tile);
    }
};

namespace {

/** The reference consumer: every span goes to the per-texel loop. */
class PerTexelSink final : public TexelAccessSink
{
  public:
    explicit PerTexelSink(CacheSim &sim) : sim_(sim) {}

    void bindTexture(TextureId tid) override { sim_.bindTexture(tid); }

    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        BatchReferencePeer::perTexel(sim_, refs);
    }

  private:
    CacheSim &sim_;
};

/** Saved state as bytes — the strongest equality there is. */
template <typename T>
std::vector<uint8_t>
savedBytes(const T &state)
{
    SnapshotWriter w("unused-never-finished");
    state.save(w);
    return w.payload();
}

/**
 * Profiler knobs for a differential run: screen heatmap over
 * @p width x @p height pixels, texture heatmaps at the default granule,
 * working-set intervals of two frames, capacity axis in @p cfg's L1
 * lines.
 */
ReuseProfilerConfig
profilerConfig(const CacheSimConfig &cfg, uint32_t width, uint32_t height)
{
    ReuseProfilerConfig pc;
    pc.enabled = true;
    pc.interval_frames = 2;
    pc.screen_width = width;
    pc.screen_height = height;
    pc.l1_unit_bytes = cfg.l1.lineBytes();
    pc.l2_unit_bytes = cfg.l1.lineBytes();
    return pc;
}

/**
 * Everything a profiler emits: its snapshot bytes and, by file name,
 * the bytes of every file writeMrc() and writeHeatmaps() produce.
 */
struct ProfileOutputs
{
    std::vector<uint8_t> snapshot;
    std::map<std::string, std::string> files;
};

ProfileOutputs
profileOutputs(const ReuseProfiler &profiler, const std::string &tag)
{
    const std::filesystem::path dir =
        testing::TempDir() + "batch_equivalence." +
        std::to_string(getpid()) + "." + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    profiler.writeMrc((dir / "mrc").string());
    profiler.writeHeatmaps((dir / "heat").string());
    ProfileOutputs out{savedBytes(profiler), {}};
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        out.files[entry.path().filename().string()] =
            std::string(std::istreambuf_iterator<char>(in), {});
    }
    std::filesystem::remove_all(dir);
    return out;
}

/** Profiler snapshots and export files must match byte for byte. */
void
expectProfilesEqual(const ReuseProfiler &a, const ReuseProfiler &b,
                    const std::string &ctx)
{
    const ProfileOutputs pa = profileOutputs(a, "a");
    const ProfileOutputs pb = profileOutputs(b, "b");
    EXPECT_EQ(pa.snapshot, pb.snapshot)
        << ctx << ": profiler snapshot bytes diverge";
    // mrc.csv, mrc.ws.csv, mrc.json, heat.json, heat.screen*.pgm and
    // one heat.tex<id>.pgm per referenced texture.
    EXPECT_GE(pa.files.size(), 6u) << ctx;
    ASSERT_EQ(pa.files.size(), pb.files.size()) << ctx;
    for (const auto &[name, bytes] : pa.files) {
        const auto it = pb.files.find(name);
        ASSERT_NE(it, pb.files.end()) << ctx << ": " << name << " missing";
        EXPECT_TRUE(bytes == it->second) << ctx << ": " << name << " differs";
    }
}

/** Every field of CacheFrameStats, not just the headline counters. */
void
expectStatsEqual(const CacheFrameStats &a, const CacheFrameStats &b,
                 const std::string &ctx)
{
    EXPECT_EQ(a.accesses, b.accesses) << ctx;
    EXPECT_EQ(a.l1_misses, b.l1_misses) << ctx;
    EXPECT_EQ(a.l2_full_hits, b.l2_full_hits) << ctx;
    EXPECT_EQ(a.l2_partial_hits, b.l2_partial_hits) << ctx;
    EXPECT_EQ(a.l2_full_misses, b.l2_full_misses) << ctx;
    EXPECT_EQ(a.host_bytes, b.host_bytes) << ctx;
    EXPECT_EQ(a.l2_read_bytes, b.l2_read_bytes) << ctx;
    EXPECT_EQ(a.tlb_probes, b.tlb_probes) << ctx;
    EXPECT_EQ(a.tlb_hits, b.tlb_hits) << ctx;
    EXPECT_EQ(a.victim_steps_max, b.victim_steps_max) << ctx;
    EXPECT_EQ(a.host_retries, b.host_retries) << ctx;
    EXPECT_EQ(a.host_failures, b.host_failures) << ctx;
    EXPECT_EQ(a.degraded_accesses, b.degraded_accesses) << ctx;
    EXPECT_EQ(a.degraded_mip_bias, b.degraded_mip_bias) << ctx;
    EXPECT_EQ(a.l1_compulsory, b.l1_compulsory) << ctx;
    EXPECT_EQ(a.l1_capacity, b.l1_capacity) << ctx;
    EXPECT_EQ(a.l1_conflict, b.l1_conflict) << ctx;
    EXPECT_EQ(a.l2_compulsory, b.l2_compulsory) << ctx;
    EXPECT_EQ(a.l2_capacity, b.l2_capacity) << ctx;
    EXPECT_EQ(a.l2_conflict, b.l2_conflict) << ctx;
}

Workload
tinyVillage()
{
    VillageParams p;
    p.houses = 4;
    p.trees = 2;
    p.extent = 80.0f;
    p.ground_texture_size = 64;
    p.wall_texture_size = 64;
    return buildVillage(p);
}

Workload
tinyCity()
{
    CityParams p;
    p.blocks_x = 3;
    p.blocks_z = 3;
    p.facade_texture_size = 64;
    p.large_facades = 1;
    return buildCity(p);
}

HostPathConfig
faultyHost()
{
    HostPathConfig host;
    host.fault_injection = true;
    host.faults.seed = 1234;
    host.faults.drop_rate = 0.15;
    host.faults.corrupt_rate = 0.08;
    host.faults.spike_rate = 0.05;
    host.faults.burst_period = 200;
    host.faults.burst_length = 20;
    return host;
}

/**
 * The rendering differential: the same workload rendered twice through
 * the full rasterizer → sampler pipeline, once straight into a CacheSim
 * (its accessBatch() staged loop) and once into a twin through
 * PerTexelSink (the per-texel reference loop), must produce identical
 * per-frame stats and an identical end-state snapshot. With
 * @p profile each twin carries a reuse profiler with screen and texture
 * heatmaps, whose snapshot and exports must match too.
 */
void
checkRenderDifferential(Workload (*build)(), FilterMode filter,
                        const CacheSimConfig &cfg, int frames,
                        const std::string &ctx, bool profile = false)
{
    std::vector<CacheFrameStats> rows[2];
    std::vector<uint8_t> snap[2];
    uint64_t texels[2] = {0, 0};
    std::unique_ptr<ReuseProfiler> profiler[2];
    for (int mode = 0; mode < 2; ++mode) {
        Workload wl = build();
        CacheSim sim(*wl.textures, cfg, "diff");
        if (profile) {
            profiler[mode] =
                std::make_unique<ReuseProfiler>(profilerConfig(cfg, 96, 64));
            sim.setReuseProfiler(profiler[mode].get());
        }
        PerTexelSink reference(sim);
        Rasterizer raster(96, 64);
        raster.setFilter(filter);
        raster.setSink(mode == 0 ? static_cast<TexelAccessSink *>(&reference)
                                 : &sim);
        const float aspect = 96.0f / 64.0f;
        for (int f = 0; f < frames; ++f) {
            Camera cam = wl.cameraAtFrame(f, wl.default_frames, aspect);
            FrameStats fs = raster.renderFrame(wl.scene, cam, *wl.textures);
            texels[mode] += fs.texel_accesses;
            rows[mode].push_back(sim.endFrame());
        }
        snap[mode] = savedBytes(sim);
    }
    EXPECT_EQ(texels[0], texels[1]) << ctx;
    ASSERT_EQ(rows[0].size(), rows[1].size()) << ctx;
    for (size_t i = 0; i < rows[0].size(); ++i)
        expectStatsEqual(rows[0][i], rows[1][i],
                         ctx + " frame " + std::to_string(i));
    EXPECT_EQ(snap[0], snap[1]) << ctx << ": snapshot bytes diverge";
    if (profile)
        expectProfilesEqual(*profiler[0], *profiler[1], ctx);
}

TEST(BatchRenderDifferential, VillageEveryFilterMode)
{
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 256 << 10);
    for (FilterMode f : {FilterMode::Point, FilterMode::Bilinear,
                         FilterMode::Trilinear})
        checkRenderDifferential(tinyVillage, f, cfg, 3,
                                std::string("village-") + filterModeName(f));
}

TEST(BatchRenderDifferential, VillagePullArchitecture)
{
    checkRenderDifferential(tinyVillage, FilterMode::Trilinear,
                            CacheSimConfig::pull(16 << 10), 3, "village-pull");
}

TEST(BatchRenderDifferential, VillageWithFaultInjection)
{
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 128 << 10);
    cfg.host = faultyHost();
    checkRenderDifferential(tinyVillage, FilterMode::Trilinear, cfg, 3,
                            "village-faults");
}

TEST(BatchRenderDifferential, VillageClassifiedWithTlb)
{
    // classify_misses attaches the hit-observing shadow models, which
    // the staged loop feeds every post-coalescing reference in order.
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 128 << 10);
    cfg.classify_misses = true;
    cfg.tlb_entries = 8;
    checkRenderDifferential(tinyVillage, FilterMode::Trilinear, cfg, 3,
                            "village-classified-tlb");
}

TEST(BatchRenderDifferential, VillageEightTexelL1Tiles)
{
    // 8x8 L1 tiles in 16x16 L1-layout blocks: two sub-block bits per
    // Morton code instead of four, so the fused translation's tile/
    // sub-block split differs from every 4x4 case.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(
        2 << 10, 256 << 10, /*l2_tile=*/32, /*l1_tile=*/8);
    checkRenderDifferential(tinyVillage, FilterMode::Trilinear, cfg, 3,
                            "village-l1tile8");
}

TEST(BatchRenderDifferential, CityTrilinear)
{
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 256 << 10);
    checkRenderDifferential(tinyCity, FilterMode::Trilinear, cfg, 3, "city");
}

TEST(BatchRenderDifferential, ProfiledPullArchitecture)
{
    checkRenderDifferential(tinyVillage, FilterMode::Trilinear,
                            CacheSimConfig::pull(16 << 10), 3,
                            "village-pull-profiled", /*profile=*/true);
}

TEST(BatchRenderDifferential, ProfiledTwoLevel)
{
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 64 << 10);
    for (FilterMode f : {FilterMode::Bilinear, FilterMode::Trilinear})
        checkRenderDifferential(
            tinyVillage, f, cfg, 3,
            std::string("village-profiled-") + filterModeName(f),
            /*profile=*/true);
}

TEST(BatchRenderDifferential, ProfiledWithFaultInjection)
{
    // Retry exhaustion degrades accesses to coarser resident levels:
    // the profiler must see the same L1 and L2 streams around them.
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 128 << 10);
    cfg.host = faultyHost();
    checkRenderDifferential(tinyVillage, FilterMode::Trilinear, cfg, 3,
                            "village-faults-profiled", /*profile=*/true);
}

TEST(BatchRenderDifferential, ProfiledEightTexelL1Tiles)
{
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(
        2 << 10, 256 << 10, /*l2_tile=*/32, /*l1_tile=*/8);
    checkRenderDifferential(tinyVillage, FilterMode::Trilinear, cfg, 3,
                            "village-l1tile8-profiled", /*profile=*/true);
}

TEST(BatchRenderDifferential, ProfiledAndClassified)
{
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 128 << 10);
    cfg.classify_misses = true;
    cfg.tlb_entries = 8;
    checkRenderDifferential(tinyVillage, FilterMode::Trilinear, cfg, 3,
                            "village-profiled-classified", /*profile=*/true);
    checkRenderDifferential(tinyCity, FilterMode::Bilinear, cfg, 3,
                            "city-profiled-classified", /*profile=*/true);
}

/**
 * Direct-drive differential fixture: hand-built TexelRef streams pushed
 * through accessBatch() on one simulator and through the per-texel
 * reference loop on a twin.
 */
class BatchSpanTest : public ::testing::Test
{
  protected:
    BatchSpanTest()
    {
        tex = tm.load("t", MipPyramid(Image(256, 256)));
        tex2 = tm.load("u", MipPyramid(Image(128, 128)));
    }

    /** Run @p refs through the per-texel reference loop. */
    static void
    replayPerTexel(CacheSim &sim, const std::vector<TexelRef> &refs)
    {
        BatchReferencePeer::perTexel(sim, refs);
    }

    /**
     * Drive both sims with the same ref stream split into batches of
     * the given length and assert frame stats + snapshot equality.
     */
    void
    checkSpans(CacheSim &batched, CacheSim &reference,
               const std::vector<TexelRef> &refs, size_t span_len,
               const std::string &ctx)
    {
        for (size_t i = 0; i < refs.size(); i += span_len) {
            const size_t n = std::min(span_len, refs.size() - i);
            const std::vector<TexelRef> span(&refs[i], &refs[i] + n);
            batched.accessBatch(span);
            replayPerTexel(reference, span);
        }
        expectStatsEqual(batched.endFrame(), reference.endFrame(), ctx);
        EXPECT_EQ(savedBytes(batched), savedBytes(reference))
            << ctx << ": snapshot bytes diverge";
        if (batched.reuseProfiler())
            expectProfilesEqual(*batched.reuseProfiler(),
                                *reference.reuseProfiler(), ctx);
    }

    /**
     * Attach a fresh profiler with a 256x256 screen heatmap to each
     * twin; the fixture owns both.
     */
    void
    attachProfilers(CacheSim &batched, CacheSim &reference)
    {
        for (CacheSim *sim : {&batched, &reference}) {
            profilers.push_back(std::make_unique<ReuseProfiler>(
                profilerConfig(sim->config(), 256, 256)));
            sim->setReuseProfiler(profilers.back().get());
        }
    }

    /** Random mixed-kind stream confined to the bound texture. */
    std::vector<TexelRef>
    randomRefs(int count, uint32_t dim_base, uint64_t seed)
    {
        Rng rng(seed);
        std::vector<TexelRef> out;
        out.reserve(static_cast<size_t>(count));
        for (int i = 0; i < count; ++i) {
            const uint32_t mip = static_cast<uint32_t>(rng.below(3));
            const uint32_t dim = dim_base >> mip;
            const uint32_t x = static_cast<uint32_t>(rng.below(dim));
            const uint32_t y = static_cast<uint32_t>(rng.below(dim));
            if (rng.chance(0.25)) {
                out.push_back(TexelRef::quad(x, y, (x + 1) % dim,
                                             (y + 1) % dim, mip));
            } else if (rng.chance(0.05)) {
                out.push_back(TexelRef::pixel(x, y));
            } else {
                out.push_back(TexelRef::texel(x, y, mip));
            }
        }
        return out;
    }

    TextureManager tm;
    TextureId tex, tex2;
    std::vector<std::unique_ptr<ReuseProfiler>> profilers;
};

TEST_F(BatchSpanTest, EmptySpanIsANoOp)
{
    CacheSim sim(tm, CacheSimConfig::twoLevel(2 << 10, 64 << 10), "sim");
    sim.bindTexture(tex);
    const std::vector<uint8_t> before = savedBytes(sim);
    sim.accessBatch({});
    EXPECT_EQ(savedBytes(sim), before);
    const CacheFrameStats fs = sim.endFrame();
    EXPECT_EQ(fs.accesses, 0u);
    EXPECT_EQ(fs.l1_misses, 0u);
}

TEST_F(BatchSpanTest, EverySpanLengthTailMatchesScalar)
{
    // The length-1 span, sub-chunk spans of odd lengths, and spans
    // ending on and past the 256-entry staging chunk.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 64 << 10);
    for (size_t len : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                       size_t{16}, size_t{31}, size_t{67}, size_t{256},
                       size_t{300}}) {
        CacheSim batched(tm, cfg, "batched");
        CacheSim reference(tm, cfg, "reference");
        batched.bindTexture(tex);
        reference.bindTexture(tex);
        checkSpans(batched, reference, randomRefs(2000, 256, 7 + len), len,
                   "span-len-" + std::to_string(len));
    }
}

TEST_F(BatchSpanTest, SpansCrossingMipBoundaries)
{
    // Alternating MIP levels inside one span: the filter key must never
    // coalesce the same (x, y) across levels.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 64 << 10);
    CacheSim batched(tm, cfg, "batched");
    CacheSim reference(tm, cfg, "reference");
    batched.bindTexture(tex);
    reference.bindTexture(tex);
    std::vector<TexelRef> refs;
    for (uint32_t i = 0; i < 512; ++i)
        refs.push_back(TexelRef::texel(i & 63, (i >> 3) & 63, i % 3));
    checkSpans(batched, reference, refs, 128, "mip-boundaries");
}

TEST_F(BatchSpanTest, TextureBindsBetweenSpans)
{
    // Batches never span a bind; interleaving binds between spans must
    // reset the coalescing filter identically on both paths.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 64 << 10);
    CacheSim batched(tm, cfg, "batched");
    CacheSim reference(tm, cfg, "reference");
    Rng rng(99);
    for (int round = 0; round < 20; ++round) {
        const TextureId tid = rng.chance(0.5) ? tex : tex2;
        batched.bindTexture(tid);
        reference.bindTexture(tid);
        const uint32_t dim = tid == tex ? 256 : 128;
        const auto refs =
            randomRefs(100, dim, 1000 + static_cast<uint64_t>(round));
        batched.accessBatch(refs);
        replayPerTexel(reference, refs);
    }
    expectStatsEqual(batched.endFrame(), reference.endFrame(), "binds");
    EXPECT_EQ(savedBytes(batched), savedBytes(reference));
}

TEST_F(BatchSpanTest, DuplicateTexelsCoalesceIdentically)
{
    // The one-entry filter must treat a run of identical texels inside
    // one span exactly as the per-texel loop does: one L1 probe.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 64 << 10);
    CacheSim batched(tm, cfg, "batched");
    CacheSim reference(tm, cfg, "reference");
    batched.bindTexture(tex);
    reference.bindTexture(tex);
    std::vector<TexelRef> refs;
    for (int i = 0; i < 50; ++i)
        refs.push_back(TexelRef::texel(5, 5, 0));
    // ...then a different tile and back: the filter must re-probe.
    refs.push_back(TexelRef::texel(200, 200, 0));
    for (int i = 0; i < 50; ++i)
        refs.push_back(TexelRef::texel(5, 5, 0));
    checkSpans(batched, reference, refs, refs.size(), "duplicates");
}

TEST_F(BatchSpanTest, QuadsStraddlingTileBoundaries)
{
    // Quads whose corners straddle L1-tile edges expand to 1/2/4 probes
    // inside the batch loop; sweep every alignment phase.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 64 << 10);
    CacheSim batched(tm, cfg, "batched");
    CacheSim reference(tm, cfg, "reference");
    batched.bindTexture(tex);
    reference.bindTexture(tex);
    std::vector<TexelRef> refs;
    for (uint32_t y = 0; y < 64; ++y)
        for (uint32_t x = 0; x < 64; ++x)
            refs.push_back(
                TexelRef::quad(x, y, (x + 1) & 255, (y + 1) & 255, 0));
    checkSpans(batched, reference, refs, 97, "quad-tiles");
}

TEST_F(BatchSpanTest, FaultInjectionTakesTheSameSlowPath)
{
    // The miss path (fault RNG draws included) is shared code; the
    // batched filter must present it the identical miss sequence so the
    // RNG streams stay aligned.
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 32 << 10);
    cfg.host = faultyHost();
    CacheSim batched(tm, cfg, "batched");
    CacheSim reference(tm, cfg, "reference");
    batched.bindTexture(tex);
    reference.bindTexture(tex);
    checkSpans(batched, reference, randomRefs(5000, 256, 41), 113, "faults");
}

TEST_F(BatchSpanTest, ClassifiedSimsMatchThroughReplayBranch)
{
    // The L1 3C classifier observes the staged run: hits in run order,
    // each miss before handleMiss().
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 32 << 10);
    cfg.classify_misses = true;
    cfg.tlb_entries = 8;
    CacheSim batched(tm, cfg, "batched");
    CacheSim reference(tm, cfg, "reference");
    batched.bindTexture(tex);
    reference.bindTexture(tex);
    checkSpans(batched, reference, randomRefs(5000, 256, 43), 77, "classified");
}

TEST_F(BatchSpanTest, ProfiledSimsMatchOnEverySpanLength)
{
    for (const CacheSimConfig &cfg :
         {CacheSimConfig::twoLevel(2 << 10, 32 << 10),
          CacheSimConfig::pull(4 << 10)}) {
        for (size_t len : {size_t{1}, size_t{7}, size_t{67}, size_t{256},
                           size_t{300}, size_t{5000}}) {
            const std::string ctx =
                std::string(cfg.l2_enabled ? "two-level" : "pull") +
                "-profiled-len-" + std::to_string(len);
            CacheSim batched(tm, cfg, "batched");
            CacheSim reference(tm, cfg, "reference");
            attachProfilers(batched, reference);
            batched.bindTexture(tex);
            reference.bindTexture(tex);
            checkSpans(batched, reference, randomRefs(5000, 256, 50 + len),
                       len, ctx);
        }
    }
}

TEST_F(BatchSpanTest, ProfiledAndClassifiedSimsMatch)
{
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 32 << 10);
    cfg.classify_misses = true;
    cfg.tlb_entries = 8;
    CacheSim batched(tm, cfg, "batched");
    CacheSim reference(tm, cfg, "reference");
    attachProfilers(batched, reference);
    batched.bindTexture(tex);
    reference.bindTexture(tex);
    checkSpans(batched, reference, randomRefs(5000, 256, 47), 77,
               "profiled-classified");
}

TEST_F(BatchSpanTest, MarkerOnlySpansAndSpansEndingOnMarkers)
{
    // A span of markers moves only the profiler's screen position; a
    // span ending on markers leaves it on the last one. Both must carry
    // over into the next span's misses exactly as the per-texel loop
    // carries them.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 32 << 10);
    CacheSim batched(tm, cfg, "batched");
    CacheSim reference(tm, cfg, "reference");
    attachProfilers(batched, reference);
    batched.bindTexture(tex);
    reference.bindTexture(tex);
    Rng rng(61);
    const auto step = [&](const std::vector<TexelRef> &span) {
        batched.accessBatch(span);
        replayPerTexel(reference, span);
        EXPECT_EQ(savedBytes(*batched.reuseProfiler()),
                  savedBytes(*reference.reuseProfiler()));
    };
    for (int round = 0; round < 40; ++round) {
        std::vector<TexelRef> markers;
        const int n = 1 + static_cast<int>(rng.below(5));
        for (int k = 0; k < n; ++k)
            markers.push_back(TexelRef::pixel(
                static_cast<uint32_t>(rng.below(256)),
                static_cast<uint32_t>(rng.below(256))));
        step(markers); // markers only
        std::vector<TexelRef> span =
            randomRefs(1 + static_cast<int>(rng.below(400)), 256,
                       200 + static_cast<uint64_t>(round));
        span.insert(span.end(), markers.begin(), markers.end());
        step(span); // ends on markers
    }
    step({TexelRef::pixel(3, 4)});
    expectStatsEqual(batched.endFrame(), reference.endFrame(), "markers");
    EXPECT_EQ(savedBytes(batched), savedBytes(reference));
    expectProfilesEqual(*batched.reuseProfiler(),
                        *reference.reuseProfiler(), "markers");
}

TEST_F(BatchSpanTest, MarkersBetweenSurvivorsOfLongChunks)
{
    // Every texel lands in a fresh L1 tile, so each is a survivor and
    // one span fills several staging chunks. The markers between them
    // (one, none or a run of three) must reach the profiler at the
    // same survivor boundaries, so every screen-heatmap cell gets the
    // L1 and L2 misses of its own pixel.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 32 << 10);
    for (size_t len : {size_t{253}, size_t{600}, size_t{4000}}) {
        CacheSim batched(tm, cfg, "batched");
        CacheSim reference(tm, cfg, "reference");
        attachProfilers(batched, reference);
        batched.bindTexture(tex);
        reference.bindTexture(tex);
        std::vector<TexelRef> refs;
        for (uint32_t i = 0; i < 1500; ++i) {
            const uint32_t t = (i * 37) % 4096; // 64x64 tiles of 4x4
            refs.push_back(TexelRef::texel((t % 64) * 4 + 1, (t / 64) * 4,
                                           0));
            for (uint32_t k = 0; k < i % 3 + (i % 7 == 0 ? 1 : 0); ++k)
                refs.push_back(TexelRef::pixel((i + k) % 256, i / 256));
        }
        checkSpans(batched, reference, refs, len,
                   "long-chunks-" + std::to_string(len));
    }
}

TEST_F(BatchSpanTest, ThrasherSweepMatchesScalar)
{
    // Linear sweep over twice the L2's block count — the multi-stream
    // thrasher's access pattern — maximal eviction churn on both paths.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 32 << 10);
    CacheSim batched(tm, cfg, "batched");
    CacheSim reference(tm, cfg, "reference");
    batched.bindTexture(tex);
    reference.bindTexture(tex);
    std::vector<TexelRef> refs;
    for (int round = 0; round < 4; ++round)
        for (uint32_t y = 0; y < 256; y += 16)
            for (uint32_t x = 0; x < 256; x += 16)
                refs.push_back(TexelRef::texel(x, y, 0));
    checkSpans(batched, reference, refs, 256, "thrasher");
}

TEST_F(BatchSpanTest, FuzzRandomSpansAndLengths)
{
    // Seeded fuzz: random streams chopped at random span lengths,
    // including empties, against the per-texel twin. Any divergence fails
    // with the seed in the message.
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        const CacheSimConfig cfg =
            CacheSimConfig::twoLevel(2 << 10, 64 << 10);
        CacheSim batched(tm, cfg, "batched");
        CacheSim reference(tm, cfg, "reference");
        batched.bindTexture(tex);
        reference.bindTexture(tex);
        Rng rng(seed * 7919);
        const auto refs = randomRefs(3000, 256, seed);
        size_t i = 0;
        while (i < refs.size()) {
            const size_t len =
                std::min(rng.below(70), // 0 = empty span, also valid
                         static_cast<uint64_t>(refs.size() - i));
            std::vector<TexelRef> span(refs.begin() + static_cast<long>(i),
                                       refs.begin() +
                                           static_cast<long>(i + len));
            batched.accessBatch(span);
            replayPerTexel(reference, span);
            i += len == 0 ? 1 : len; // re-align after an empty span
            if (len == 0 && i <= refs.size()) {
                // Deliver the skipped ref on both sims so
                // the streams stay identical.
                std::vector<TexelRef> one(refs.begin() +
                                              static_cast<long>(i - 1),
                                          refs.begin() +
                                              static_cast<long>(i));
                batched.accessBatch(one);
                replayPerTexel(reference, one);
            }
        }
        expectStatsEqual(batched.endFrame(), reference.endFrame(),
                         "fuzz-seed-" + std::to_string(seed));
        EXPECT_EQ(savedBytes(batched), savedBytes(reference))
            << "fuzz-seed-" << seed;
    }
}

TEST(BatchSinkDefaults, CountingSinkCountsBatchedRefs)
{
    CountingSink sink;
    std::vector<TexelRef> refs;
    refs.push_back(TexelRef::texel(1, 2, 0));
    refs.push_back(TexelRef::quad(1, 2, 3, 4, 1));
    refs.push_back(TexelRef::pixel(9, 9));
    sink.accessBatch(refs);
    EXPECT_EQ(sink.count, 5u); // 1 texel + 4 quad corners, pixel ignored
}

/** Implements only the two pure virtuals and records every span. */
class TwoMethodSink final : public TexelAccessSink
{
  public:
    void bindTexture(TextureId tid) override { binds.push_back(tid); }

    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        spans.emplace_back(refs.begin(), refs.end());
    }

    std::vector<TextureId> binds;
    std::vector<std::vector<TexelRef>> spans;
};

void
expectSameRef(const TexelRef &a, const TexelRef &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.x0, b.x0);
    EXPECT_EQ(a.y0, b.y0);
    EXPECT_EQ(a.x1, b.x1);
    EXPECT_EQ(a.y1, b.y1);
    EXPECT_EQ(a.mip, b.mip);
}

TEST(BatchSinkDefaults, ScalarCallsArriveAsOneElementSpans)
{
    TwoMethodSink sink;
    TexelAccessSink &base = sink;
    base.bindTexture(7);
    base.access(3, 4, 5);
    base.accessQuad(10, 11, 12, 13, 2);
    base.beginPixel(640, 480);
    EXPECT_EQ(sink.binds, std::vector<TextureId>{7});
    const TexelRef want[] = {TexelRef::texel(3, 4, 5),
                             TexelRef::quad(10, 11, 12, 13, 2),
                             TexelRef::pixel(640, 480)};
    ASSERT_EQ(sink.spans.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        ASSERT_EQ(sink.spans[i].size(), 1u) << "call " << i;
        expectSameRef(sink.spans[i][0], want[i]);
    }
}

/**
 * Forwards each span to @p next one ref at a time, through the scalar
 * wrappers: the consumer sees one one-ref span per ref.
 */
class OneRefSink final : public TexelAccessSink
{
  public:
    explicit OneRefSink(TexelAccessSink &next) : next_(next) {}

    void bindTexture(TextureId tid) override { next_.bindTexture(tid); }

    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        for (const TexelRef &r : refs) {
            if (r.kind == TexelRef::kTexel)
                next_.access(r.x0, r.y0, r.mip);
            else if (r.kind == TexelRef::kQuad)
                next_.accessQuad(r.x0, r.y0, r.x1, r.y1, r.mip);
            else
                next_.beginPixel(r.x0, r.y0);
        }
    }

  private:
    TexelAccessSink &next_;
};

/**
 * Render @p frames trilinear tiny-Village frames once, fanned out to
 * @p spans (the producer's spans) and, one ref at a time, to
 * @p one_ref; @p end_frame harvests both after every frame.
 */
template <typename EndFrame>
void
renderBoth(Workload &wl, TexelAccessSink &spans, TexelAccessSink &one_ref,
           int frames, EndFrame end_frame)
{
    OneRefSink split(one_ref);
    FanoutSink fan;
    fan.add(&spans);
    fan.add(&split);
    Rasterizer raster(96, 64);
    raster.setFilter(FilterMode::Trilinear);
    raster.setSink(&fan);
    for (int f = 0; f < frames; ++f) {
        Camera cam = wl.cameraAtFrame(f, wl.default_frames, 96.0f / 64.0f);
        raster.renderFrame(wl.scene, cam, *wl.textures);
        end_frame(f);
    }
}

TEST(BatchSinkDefaults, SetAssocL2SimSameForSpansAndOneRefSpans)
{
    Workload wl = tinyVillage();
    SetAssocL2Config cfg;
    cfg.l1.size_bytes = 2 << 10;
    cfg.l2_size_bytes = 64 << 10;
    SetAssocL2Sim spans(*wl.textures, cfg), one_ref(*wl.textures, cfg);
    renderBoth(wl, spans, one_ref, 3, [&](int f) {
        const CacheFrameStats a = spans.endFrame();
        EXPECT_GT(a.accesses, 0u);
        expectStatsEqual(a, one_ref.endFrame(),
                         "set-assoc frame " + std::to_string(f));
    });
    expectStatsEqual(spans.totals(), one_ref.totals(), "set-assoc totals");
}

TEST(BatchSinkDefaults, WorkingSetCollectorSameForSpansAndOneRefSpans)
{
    Workload wl = tinyVillage();
    WorkingSetCollector spans(*wl.textures, {8, 16, 32}, {4, 8});
    WorkingSetCollector one_ref(*wl.textures, {8, 16, 32}, {4, 8});
    renderBoth(wl, spans, one_ref, 3, [&](int f) {
        const FrameWorkingSet a = spans.endFrame();
        const FrameWorkingSet b = one_ref.endFrame();
        const std::string ctx = "working-set frame " + std::to_string(f);
        EXPECT_GT(a.pixel_refs, 0u) << ctx;
        EXPECT_EQ(a.pixel_refs, b.pixel_refs) << ctx;
        EXPECT_EQ(a.textures_touched, b.textures_touched) << ctx;
        EXPECT_EQ(a.push_bytes, b.push_bytes) << ctx;
        EXPECT_EQ(a.loaded_bytes, b.loaded_bytes) << ctx;
        ASSERT_EQ(a.l2.size(), b.l2.size()) << ctx;
        for (size_t i = 0; i < a.l2.size(); ++i) {
            EXPECT_EQ(a.l2[i].blocks_touched, b.l2[i].blocks_touched) << ctx;
            EXPECT_EQ(a.l2[i].blocks_new, b.l2[i].blocks_new) << ctx;
        }
        ASSERT_EQ(a.l1.size(), b.l1.size()) << ctx;
        for (size_t i = 0; i < a.l1.size(); ++i) {
            EXPECT_EQ(a.l1[i].tiles_touched, b.l1[i].tiles_touched) << ctx;
            EXPECT_EQ(a.l1[i].tiles_new, b.l1[i].tiles_new) << ctx;
        }
        EXPECT_EQ(savedBytes(spans), savedBytes(one_ref)) << ctx;
    });
}

TEST(BatchSinkDefaults, PushModelSameForSpansAndOneRefSpans)
{
    Workload wl = tinyVillage();
    PushArchitectureModel spans(*wl.textures), one_ref(*wl.textures);
    renderBoth(wl, spans, one_ref, 3, [&](int f) {
        // Snapshot mid-frame, while the touched set is populated.
        EXPECT_EQ(savedBytes(spans), savedBytes(one_ref)) << "frame " << f;
        const uint64_t a = spans.endFrame();
        EXPECT_GT(a, 0u);
        EXPECT_EQ(a, one_ref.endFrame()) << "frame " << f;
    });
}

} // namespace
} // namespace mltc
