/**
 * @file
 * Round-trip tests for the access trace recorder/replayer, and the
 * trace-replay differential: a recorded and replayed run must equal the
 * rasterized run it was recorded from — stats, MRC and heatmaps.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "core/cache_sim.hpp"
#include "obs/reuse_profiler.hpp"
#include "raster/rasterizer.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/serializer.hpp"
#include "workload/city.hpp"
#include "workload/village.hpp"

namespace mltc {
namespace {

/** Sink recording every scalar event for comparison. */
class RecordingSink final : public TexelAccessSink
{
  public:
    enum Kind : uint32_t { kBind, kAccess, kQuad, kPixel };

    void
    bindTexture(TextureId tid) override
    {
        events.push_back({kBind, tid});
    }

    void
    beginPixel(uint32_t px, uint32_t py) override
    {
        events.push_back({kPixel, px, py});
    }

    void
    access(uint32_t x, uint32_t y, uint32_t mip) override
    {
        events.push_back({kAccess, x, y, mip});
    }

    void
    accessQuad(uint32_t x0, uint32_t y0, uint32_t x1, uint32_t y1,
               uint32_t mip) override
    {
        events.push_back({kQuad, x0, y0, mip, x1, y1});
    }

    struct Ev
    {
        uint32_t kind, a, b = 0, c = 0, d = 0, e = 0;

        bool operator==(const Ev &o) const = default;
    };
    std::vector<Ev> events;
};

/** Sink keeping each replayed span whole, binds in between. */
class SpanSink final : public TexelAccessSink
{
  public:
    void
    bindTexture(TextureId tid) override
    {
        binds.push_back({refs.size(), tid});
    }

    void access(uint32_t, uint32_t, uint32_t) override { FAIL(); }

    void
    accessBatch(std::span<const TexelRef> span) override
    {
        ++batches;
        max_batch = std::max(max_batch, span.size());
        refs.insert(refs.end(), span.begin(), span.end());
    }

    std::vector<std::pair<size_t, TextureId>> binds; ///< (ref offset, tid)
    std::vector<TexelRef> refs;
    size_t batches = 0;
    size_t max_batch = 0;
};

bool
sameRef(const TexelRef &a, const TexelRef &b)
{
    return a.x0 == b.x0 && a.y0 == b.y0 && a.x1 == b.x1 && a.y1 == b.y1 &&
           a.mip == b.mip && a.kind == b.kind;
}

// PID-suffixed: ctest runs each test case as its own process, possibly
// in parallel, so shared fixed names would race on create/remove.
std::string
tempTrace(const char *name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

long
fileSize(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    return size;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in), {}};
}

TEST(TraceIo, RoundTripsEvents)
{
    std::string path = tempTrace("trace_roundtrip.bin");
    {
        TraceWriter w(path);
        w.bindTexture(3);
        w.access(1, 2, 0);
        w.access(100, 200, 5);
        w.endFrame();
        w.bindTexture(4);
        w.access(7, 8, 1);
        w.endFrame();
        w.close();
    }
    TraceReader r(path);
    RecordingSink sink;
    EXPECT_TRUE(r.replayFrame(sink));
    ASSERT_EQ(sink.events.size(), 3u);
    EXPECT_EQ(sink.events[0], (RecordingSink::Ev{RecordingSink::kBind, 3}));
    EXPECT_EQ(sink.events[1],
              (RecordingSink::Ev{RecordingSink::kAccess, 1, 2, 0}));
    EXPECT_EQ(sink.events[2],
              (RecordingSink::Ev{RecordingSink::kAccess, 100, 200, 5}));

    sink.events.clear();
    EXPECT_TRUE(r.replayFrame(sink));
    ASSERT_EQ(sink.events.size(), 2u);
    EXPECT_EQ(sink.events[1],
              (RecordingSink::Ev{RecordingSink::kAccess, 7, 8, 1}));

    EXPECT_FALSE(r.replayFrame(sink)); // end of trace
    EXPECT_FALSE(r.replayFrame(sink)); // and it stays there
    std::remove(path.c_str());
}

TEST(TraceIo, RoundTripsQuadsAndPixelMarkers)
{
    // Every scalar entry point, plus a batch mixing all three kinds,
    // comes back as the same event sequence.
    std::string path = tempTrace("trace_kinds.bin");
    {
        TraceWriter w(path);
        w.bindTexture(9);
        w.beginPixel(10, 20);
        w.accessQuad(4, 5, 5, 6, 2);  // the +1/+1 neighbour shortcut
        w.accessQuad(63, 0, 0, 1, 0); // wrapped at the texture edge
        w.beginPixel(11, 20);
        w.access(0xffffffffu, 0, 40); // escaped MIP, extreme coordinate
        const TexelRef batch[] = {TexelRef::pixel(12, 20),
                                  TexelRef::quad(8, 8, 9, 9, 1),
                                  TexelRef::texel(3, 3, 0)};
        w.accessBatch(batch);
        w.endFrame();
        w.close();
    }
    using E = RecordingSink;
    const std::vector<E::Ev> want = {
        {E::kBind, 9},           {E::kPixel, 10, 20},
        {E::kQuad, 4, 5, 2, 5, 6}, {E::kQuad, 63, 0, 0, 0, 1},
        {E::kPixel, 11, 20},     {E::kAccess, 0xffffffffu, 0, 40},
        {E::kPixel, 12, 20},     {E::kQuad, 8, 8, 1, 9, 9},
        {E::kAccess, 3, 3, 0},
    };
    TraceReader r(path);
    RecordingSink sink;
    EXPECT_EQ(r.replayAll(sink), 1u);
    EXPECT_EQ(sink.events, want);
    std::remove(path.c_str());
}

TEST(TraceIo, SpansRoundTripVerbatimAcrossTheSpanCap)
{
    // 3 frames of random refs, 10k per bind: spans split at the 4096
    // cap and at every bind, and every TexelRef comes back verbatim.
    std::string path = tempTrace("trace_spans.bin");
    Rng rng(77);
    std::vector<TexelRef> sent;
    std::vector<std::pair<size_t, TextureId>> sent_binds;
    {
        TraceWriter w(path);
        std::vector<TexelRef> chunk;
        for (int frame = 0; frame < 3; ++frame) {
            for (TextureId tid = 1; tid <= 2; ++tid) {
                w.bindTexture(tid);
                sent_binds.push_back({sent.size(), tid});
                chunk.clear();
                for (int i = 0; i < 10000; ++i) {
                    const auto x = static_cast<uint32_t>(rng.below(1u << 20));
                    const auto y = static_cast<uint32_t>(rng.below(1u << 20));
                    const auto mip = static_cast<uint32_t>(rng.below(40));
                    const uint64_t pick = rng.below(4);
                    chunk.push_back(
                        pick == 0   ? TexelRef::pixel(x, y)
                        : pick == 1 ? TexelRef::texel(x, y, mip)
                        : pick == 2 ? TexelRef::quad(x, y, x + 1, y + 1, mip)
                                    : TexelRef::quad(x, y, 0, y + 1, mip));
                }
                w.accessBatch(chunk);
                sent.insert(sent.end(), chunk.begin(), chunk.end());
            }
            w.endFrame();
        }
        w.close();
    }
    TraceReader r(path);
    SpanSink sink;
    EXPECT_EQ(r.replayAll(sink), 3u);
    EXPECT_EQ(sink.binds, sent_binds);
    ASSERT_EQ(sink.refs.size(), sent.size());
    for (size_t i = 0; i < sent.size(); ++i)
        ASSERT_TRUE(sameRef(sink.refs[i], sent[i])) << "ref " << i;
    EXPECT_EQ(sink.max_batch, 4096u);
    EXPECT_EQ(sink.batches, 6u * 3u); // ceil(10000 / 4096) per bind
    std::remove(path.c_str());
}

TEST(TraceIo, ReplayAllCountsFrames)
{
    std::string path = tempTrace("trace_frames.bin");
    {
        TraceWriter w(path);
        for (int f = 0; f < 5; ++f) {
            w.bindTexture(1);
            w.access(static_cast<uint32_t>(f), 0, 0);
            w.endFrame();
        }
        w.close();
    }
    TraceReader r(path);
    RecordingSink sink;
    EXPECT_EQ(r.replayAll(sink), 5u);
    EXPECT_EQ(sink.events.size(), 10u);
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceYieldsNoFrames)
{
    std::string path = tempTrace("trace_empty.bin");
    {
        TraceWriter w(path);
        w.close();
    }
    TraceReader r(path);
    RecordingSink sink;
    EXPECT_FALSE(r.replayFrame(sink));
    std::remove(path.c_str());
}

TEST(TraceIo, CloseEndsAnOpenFrame)
{
    std::string path = tempTrace("trace_open.bin");
    {
        TraceWriter w(path);
        w.bindTexture(1);
        w.access(1, 1, 0);
        w.close();
        w.close(); // a second close is a no-op
    }
    TraceReader r(path);
    RecordingSink sink;
    EXPECT_EQ(r.replayAll(sink), 1u);
    EXPECT_EQ(sink.events.size(), 2u);
    std::remove(path.c_str());
}

TEST(TraceIo, UnclosedWriterLeavesATruncatedTrace)
{
    // Without close() there is no trailer: replay must not pass the
    // frames off as a complete trace.
    std::string path = tempTrace("trace_unclosed.bin");
    {
        TraceWriter w(path);
        w.bindTexture(1);
        w.access(1, 1, 0);
        w.endFrame();
    }
    TraceReader r(path);
    RecordingSink sink;
    try {
        r.replayAll(sink);
        FAIL() << "expected a typed exception";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::Truncated);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile)
{
    EXPECT_THROW(TraceReader("/nonexistent/trace.bin"),
                 std::runtime_error);
    EXPECT_THROW(TraceWriter("/nonexistent_dir/trace.bin"),
                 std::runtime_error);
}

TEST(TraceIo, RejectsBadMagic)
{
    std::string path = tempTrace("trace_badmagic.bin");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fwrite("NOTATRACE", 1, 9, f);
    std::fclose(f);
    EXPECT_THROW(TraceReader reader(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedAccessThrows)
{
    std::string path = tempTrace("trace_trunc.bin");
    {
        TraceWriter w(path);
        w.bindTexture(1);
        w.access(1, 2, 3);
        w.close();
    }
    // Chop the trailer (17 bytes), the end-frame marker and the last 2
    // bytes of the span holding the access.
    ASSERT_EQ(truncate(path.c_str(), fileSize(path) - 17 - 1 - 2), 0);

    TraceReader r(path);
    RecordingSink sink;
    try {
        r.replayFrame(sink);
        FAIL() << "expected a typed exception";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::Truncated);
    }
    std::remove(path.c_str());
}

// --- Trace-replay differential --------------------------------------------

constexpr int kDiffWidth = 256;
constexpr int kDiffHeight = 192;
constexpr int kDiffFrames = 2;

/** Every CacheFrameStats counter, in declaration order. */
std::vector<uint64_t>
statFields(const CacheFrameStats &s)
{
    return {s.accesses,          s.l1_misses,       s.l2_full_hits,
            s.l2_partial_hits,   s.l2_full_misses,  s.host_bytes,
            s.l2_read_bytes,     s.tlb_probes,      s.tlb_hits,
            s.victim_steps_max,  s.host_retries,    s.host_failures,
            s.degraded_accesses, s.degraded_mip_bias, s.l1_compulsory,
            s.l1_capacity,       s.l1_conflict,     s.l2_compulsory,
            s.l2_capacity,       s.l2_conflict};
}

/** What one run leaves behind: per-frame stats and every artifact. */
struct RunOutputs
{
    std::vector<std::vector<uint64_t>> frames;
    std::vector<uint8_t> snapshot;
    std::string mrc_csv;
    std::string screen_pgm;
    std::string screen_l2_pgm;
    std::string heatmap_json;
};

/**
 * A profiled, 3C-classified 2 KB + 256 KB simulator over @p wl. With
 * @p trace empty it is fed by the rasterizer directly; otherwise the
 * rasterizer records into @p trace and the simulator replays it.
 */
RunOutputs
profiledRun(Workload &wl, FilterMode filter, const std::string &trace,
            const std::string &out_base)
{
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 256 << 10);
    cfg.classify_misses = true;
    CacheSim sim(*wl.textures, cfg, "diff");
    ReuseProfilerConfig pc;
    pc.enabled = true;
    pc.sample_rate = 1.0;
    pc.screen_width = kDiffWidth;
    pc.screen_height = kDiffHeight;
    pc.l1_unit_bytes = cfg.l1.lineBytes();
    pc.l2_unit_bytes = cfg.l1.lineBytes();
    ReuseProfiler profiler(pc);
    sim.setReuseProfiler(&profiler);

    Rasterizer raster(kDiffWidth, kDiffHeight);
    raster.setFilter(filter);
    const float aspect =
        static_cast<float>(kDiffWidth) / static_cast<float>(kDiffHeight);
    auto render = [&](TexelAccessSink &sink, auto &&after_frame) {
        raster.setSink(&sink);
        for (int f = 0; f < kDiffFrames; ++f) {
            raster.renderFrame(wl.scene,
                               wl.cameraAtFrame(f, wl.default_frames, aspect),
                               *wl.textures);
            after_frame();
        }
        raster.setSink(nullptr);
    };

    RunOutputs out;
    if (trace.empty()) {
        render(sim, [&] { out.frames.push_back(statFields(sim.endFrame())); });
    } else {
        TraceWriter writer(trace);
        render(writer, [&] { writer.endFrame(); });
        writer.close();
        TraceReader reader(trace);
        while (reader.replayFrame(sim))
            out.frames.push_back(statFields(sim.endFrame()));
        std::remove(trace.c_str());
    }
    SnapshotWriter snap("unused-never-finished");
    sim.save(snap);
    out.snapshot = snap.payload();
    profiler.writeMrc(out_base + ".mrc");
    profiler.writeHeatmaps(out_base + ".heat");
    out.mrc_csv = slurp(out_base + ".mrc.csv");
    out.screen_pgm = slurp(out_base + ".heat.screen.pgm");
    out.screen_l2_pgm = slurp(out_base + ".heat.screen_l2.pgm");
    out.heatmap_json = slurp(out_base + ".heat.json");
    // Drop every file the run wrote (one texture map per texture).
    const std::filesystem::path base(out_base);
    for (const auto &entry :
         std::filesystem::directory_iterator(base.parent_path()))
        if (entry.path().filename().string().starts_with(
                base.filename().string() + "."))
            std::filesystem::remove(entry.path());
    return out;
}

void
checkReplayDifferential(Workload (*build)(), const char *name)
{
    for (FilterMode filter : {FilterMode::Bilinear, FilterMode::Trilinear}) {
        const std::string ctx =
            std::string(name) + "-" + filterModeName(filter);
        Workload wl = build();
        const RunOutputs direct = profiledRun(
            wl, filter, "", tempTrace(("diff_direct_" + ctx).c_str()));
        const RunOutputs replayed = profiledRun(
            wl, filter, tempTrace(("diff_trace_" + ctx).c_str()),
            tempTrace(("diff_replay_" + ctx).c_str()));
        ASSERT_EQ(direct.frames.size(), size_t{kDiffFrames}) << ctx;
        EXPECT_GT(direct.frames[0][0], 0u) << ctx << ": nothing rendered";
        EXPECT_EQ(direct.frames, replayed.frames) << ctx;
        // Byte blobs: report which artifact differs, not its bytes.
        EXPECT_TRUE(direct.snapshot == replayed.snapshot)
            << ctx << ": snapshot bytes differ";
        EXPECT_TRUE(direct.mrc_csv == replayed.mrc_csv)
            << ctx << ": MRC CSV differs";
        EXPECT_FALSE(direct.screen_pgm.empty()) << ctx;
        EXPECT_TRUE(direct.screen_pgm == replayed.screen_pgm)
            << ctx << ": screen heatmap differs";
        EXPECT_TRUE(direct.screen_l2_pgm == replayed.screen_l2_pgm)
            << ctx << ": screen L2 heatmap differs";
        EXPECT_TRUE(direct.heatmap_json == replayed.heatmap_json)
            << ctx << ": heatmap JSON differs";
    }
}

Workload
village()
{
    return buildVillage(VillageParams{});
}

Workload
city()
{
    return buildCity(CityParams{});
}

TEST(TraceReplayDifferential, VillageBilinearAndTrilinear)
{
    checkReplayDifferential(village, "village");
}

TEST(TraceReplayDifferential, CityBilinearAndTrilinear)
{
    checkReplayDifferential(city, "city");
}

} // namespace
} // namespace mltc
