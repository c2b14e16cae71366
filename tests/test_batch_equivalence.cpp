/**
 * @file
 * Differential harness for the batched access path
 * (docs/batched_access.md): the staged fast loop of
 * CacheSim::accessBatch() must be *byte-identical* — every
 * CacheFrameStats counter, every snapshot payload byte — to the
 * per-texel reference loop (CacheSim::perTexelImpl(), the handleTexel/
 * quadImpl/handleMiss path) over real workloads (Village, City), a
 * synthetic L2 thrasher, every filter mode, fault injection, 3C
 * classification and TLB modelling; plus property/fuzz coverage of
 * accessBatch() itself (empty spans, length-1 spans, spans ending
 * inside and past the staging chunk, MIP/texture boundaries inside one
 * span, duplicate texels against the coalescing filter).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/cache_sim.hpp"
#include "core/push_model.hpp"
#include "core/set_assoc_l2.hpp"
#include "raster/rasterizer.hpp"
#include "trace/working_set_collector.hpp"
#include "util/rng.hpp"
#include "util/serializer.hpp"
#include "workload/city.hpp"
#include "workload/village.hpp"

namespace mltc {

/**
 * Test-only friend of CacheSim: runs a span through the per-texel
 * reference loop, bypassing the staged fast loop accessBatch() takes
 * when no profiler or L1 classifier is attached.
 */
class BatchReferencePeer
{
  public:
    static void
    perTexel(CacheSim &sim, std::span<const TexelRef> refs)
    {
        sim.perTexelImpl(refs);
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

/** Complete simulator state as bytes — the strongest equality there is. */
std::vector<uint8_t>
snapshotBytes(const CacheSim &sim)
{
    SnapshotWriter w("unused-never-finished");
    sim.save(w);
    return w.payload();
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
 * (its accessBatch() fast path) and once into a twin through
 * PerTexelSink (the per-texel reference loop), must produce
 * identical per-frame stats and an identical end-state snapshot.
 */
void
checkRenderDifferential(Workload (*build)(), FilterMode filter,
                        const CacheSimConfig &cfg, int frames,
                        const std::string &ctx)
{
    std::vector<CacheFrameStats> rows[2];
    std::vector<uint8_t> snap[2];
    uint64_t texels[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
        Workload wl = build();
        CacheSim sim(*wl.textures, cfg, "diff");
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
        snap[mode] = snapshotBytes(sim);
    }
    EXPECT_EQ(texels[0], texels[1]) << ctx;
    ASSERT_EQ(rows[0].size(), rows[1].size()) << ctx;
    for (size_t i = 0; i < rows[0].size(); ++i)
        expectStatsEqual(rows[0][i], rows[1][i],
                         ctx + " frame " + std::to_string(i));
    EXPECT_EQ(snap[0], snap[1]) << ctx << ": snapshot bytes diverge";
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
    // classify_misses attaches the hit-observing shadow models, forcing
    // the batched path onto its faithful replay branch — which must be
    // just as identical.
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
            std::vector<TexelRef> span(refs.begin() + i,
                                       refs.begin() + i + n);
            batched.accessBatch(span);
            replayPerTexel(reference, span);
        }
        expectStatsEqual(batched.endFrame(), reference.endFrame(), ctx);
        EXPECT_EQ(snapshotBytes(batched), snapshotBytes(reference))
            << ctx << ": snapshot bytes diverge";
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
};

TEST_F(BatchSpanTest, EmptySpanIsANoOp)
{
    CacheSim sim(tm, CacheSimConfig::twoLevel(2 << 10, 64 << 10), "sim");
    sim.bindTexture(tex);
    const std::vector<uint8_t> before = snapshotBytes(sim);
    sim.accessBatch({});
    EXPECT_EQ(snapshotBytes(sim), before);
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
        const auto refs = randomRefs(100, dim, 1000 + round);
        batched.accessBatch(refs);
        replayPerTexel(reference, refs);
    }
    expectStatsEqual(batched.endFrame(), reference.endFrame(), "binds");
    EXPECT_EQ(snapshotBytes(batched), snapshotBytes(reference));
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
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 32 << 10);
    cfg.classify_misses = true;
    cfg.tlb_entries = 8;
    CacheSim batched(tm, cfg, "batched");
    CacheSim reference(tm, cfg, "reference");
    batched.bindTexture(tex);
    reference.bindTexture(tex);
    checkSpans(batched, reference, randomRefs(5000, 256, 43), 77, "classified");
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
        EXPECT_EQ(snapshotBytes(batched), snapshotBytes(reference))
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

template <typename T>
std::vector<uint8_t>
savedBytes(const T &sink)
{
    SnapshotWriter w("unused-never-finished");
    sink.save(w);
    return w.payload();
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
