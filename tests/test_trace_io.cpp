/**
 * @file
 * Round-trip and lifecycle tests for the access trace recorder/replayer,
 * and the trace-replay differentials: replaying a recorded clip must
 * hand the sink the call sequence the writer was given, and a recorded
 * and replayed run must equal the rasterized run it was recorded from —
 * stats, MRC and heatmaps.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>
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

/** Sink recording every ref of every span for comparison. */
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
    accessBatch(std::span<const TexelRef> refs) override
    {
        for (const TexelRef &r : refs) {
            if (r.kind == TexelRef::kTexel)
                events.push_back({kAccess, r.x0, r.y0, r.mip});
            else if (r.kind == TexelRef::kQuad)
                events.push_back({kQuad, r.x0, r.y0, r.mip, r.x1, r.y1});
            else
                events.push_back({kPixel, r.x0, r.y0});
        }
    }

    struct Ev
    {
        uint32_t kind, a, b = 0, c = 0, d = 0, e = 0;

        bool operator==(const Ev &o) const = default;
    };
    std::vector<Ev> events;
};

/**
 * Every sink call in order — binds, batches (their sizes and refs) and
 * frame ends — and the thread each arrived on. Calls are forwarded to
 * @p next when one is given.
 */
class CallLog final : public TexelAccessSink
{
  public:
    enum Kind : uint32_t { kBind, kBatch, kEndFrame };

    struct Call
    {
        Kind kind = kBind;
        uint32_t value = 0; ///< bind: texture id; batch: ref count

        bool operator==(const Call &o) const = default;
    };

    explicit CallLog(TexelAccessSink *next = nullptr) : next_(next) {}

    void
    bindTexture(TextureId tid) override
    {
        onCall();
        calls.push_back({kBind, tid});
        if (next_)
            next_->bindTexture(tid);
    }

    void
    accessBatch(std::span<const TexelRef> span) override
    {
        onCall();
        calls.push_back({kBatch, static_cast<uint32_t>(span.size())});
        refs.insert(refs.end(), span.begin(), span.end());
        if (next_)
            next_->accessBatch(span);
    }

    void endFrame() { calls.push_back({kEndFrame, 0}); }

    std::vector<Call> calls;
    std::vector<TexelRef> refs;
    size_t foreign_calls = 0; ///< calls from another thread than the log's

  private:
    void
    onCall()
    {
        foreign_calls += std::this_thread::get_id() != owner_;
    }

    TexelAccessSink *next_;
    std::thread::id owner_ = std::this_thread::get_id();
};

/**
 * The calls a replay of what @p given saw must make: the same binds,
 * frame ends and refs, with the refs between two of them cut into
 * batches of at most 4096 as TraceWriter stores them.
 */
std::vector<CallLog::Call>
recutAtTheSpanCap(const std::vector<CallLog::Call> &given)
{
    constexpr uint32_t kCap = 4096;
    std::vector<CallLog::Call> want;
    uint32_t open = 0;
    for (const CallLog::Call &c : given) {
        if (c.kind == CallLog::kBatch) {
            for (open += c.value; open >= kCap; open -= kCap)
                want.push_back({CallLog::kBatch, kCap});
            continue;
        }
        if (open > 0)
            want.push_back({CallLog::kBatch, open});
        open = 0;
        want.push_back(c);
    }
    if (open > 0)
        want.push_back({CallLog::kBatch, open});
    return want;
}

/**
 * Replay the trace at @p path and check that it makes exactly the calls
 * @p given saw, re-cut at the span cap, with the same ref bytes, all on
 * the replaying thread. @return the replayed calls.
 */
std::vector<CallLog::Call>
expectReplayMakesCalls(const std::string &path, const CallLog &given,
                       const std::string &ctx)
{
    CallLog replayed;
    {
        TraceReader reader(path);
        while (reader.replayFrame(replayed))
            replayed.endFrame();
    }
    const std::vector<CallLog::Call> want = recutAtTheSpanCap(given.calls);
    const auto [got, wanted] = std::mismatch(
        replayed.calls.begin(), replayed.calls.end(), want.begin(), want.end());
    EXPECT_TRUE(got == replayed.calls.end() && wanted == want.end())
        << ctx << ": call " << (got - replayed.calls.begin()) << " of "
        << want.size() << " differs";
    EXPECT_EQ(replayed.refs.size(), given.refs.size()) << ctx;
    if (replayed.refs.size() == given.refs.size()) {
        EXPECT_EQ(std::memcmp(replayed.refs.data(), given.refs.data(),
                              given.refs.size() * sizeof(TexelRef)),
                  0)
            << ctx << ": ref bytes differ";
    }
    EXPECT_EQ(replayed.foreign_calls, 0u)
        << ctx << ": the sink was called off the replaying thread";
    return replayed.calls;
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
    TraceWriter w(path);
    CallLog given(&w);
    std::vector<TexelRef> chunk;
    for (int frame = 0; frame < 3; ++frame) {
        for (TextureId tid = 1; tid <= 2; ++tid) {
            given.bindTexture(tid);
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
            given.accessBatch(chunk);
        }
        w.endFrame();
        given.endFrame();
    }
    w.close();
    const std::vector<CallLog::Call> calls =
        expectReplayMakesCalls(path, given, "random refs");
    // ceil(10000 / 4096) spans per bind: 4096, 4096, 1808.
    EXPECT_EQ(std::count(calls.begin(), calls.end(),
                         CallLog::Call{CallLog::kBatch, 4096}),
              2 * 2 * 3);
    EXPECT_EQ(std::count(calls.begin(), calls.end(),
                         CallLog::Call{CallLog::kBatch, 1808}),
              2 * 3);
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

// --- Reader lifecycle ------------------------------------------------------

size_t
threadCount()
{
    size_t n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        (void)entry, ++n;
    return n;
}

/**
 * The thread count once it has dropped to @p want, or after two
 * seconds. A joined thread can linger in /proc/self/task for a moment
 * after pthread_join() returns.
 */
size_t
settledThreadCount(size_t want)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    size_t n = threadCount();
    while (n > want && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        n = threadCount();
    }
    return n;
}

/**
 * A clip of @p frames frames, each @p spans binds with a one-ref span
 * after each; the ref of a frame's span i is a texel at (i, frame).
 */
void
writeSpanClip(const std::string &path, int frames, int spans)
{
    TraceWriter w(path);
    for (int f = 0; f < frames; ++f) {
        for (int i = 0; i < spans; ++i) {
            w.bindTexture(static_cast<TextureId>(i));
            w.access(static_cast<uint32_t>(i), static_cast<uint32_t>(f), 0);
        }
        w.endFrame();
    }
    w.close();
}

TEST(TraceIo, ReaderDestroyedMidClipStopsItsDecodeThread)
{
    // 12 frames of 20 records each: after frame 1 the decode thread
    // fills the ring and blocks on it, and destroying the reader must
    // wake and join it.
    const std::string path = tempTrace("trace_midclip.bin");
    writeSpanClip(path, 12, 10);
    NullSink sink;
    // A sanitizer runtime may start a helper thread of its own along
    // with the first thread of the process: count once one reader has
    // come and gone.
    const size_t initial = threadCount();
    TraceReader(path).replayAll(sink);
    const size_t before = settledThreadCount(initial);
    auto reader = std::make_unique<TraceReader>(path);
    ASSERT_TRUE(reader->replayFrame(sink));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(threadCount(), before + 1) << "no decode thread running";
    const auto t0 = std::chrono::steady_clock::now();
    reader.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));

    for (int i = 0; i < 200; ++i) {
        TraceReader r(path);
        EXPECT_TRUE(r.replayFrame(sink));
    }
    EXPECT_EQ(settledThreadCount(before), before);
    std::remove(path.c_str());
}

/** Logs the ref of each span; throws from the one numbered throw_at. */
class ThrowingSink final : public TexelAccessSink
{
  public:
    explicit ThrowingSink(size_t throw_at) : throw_at_(throw_at) {}

    void bindTexture(TextureId) override {}

    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        if (spans_++ == throw_at_) {
            thrown = std::make_exception_ptr(std::runtime_error("sink"));
            std::rethrow_exception(thrown);
        }
        xs.push_back(refs[0].x0);
    }

    std::exception_ptr thrown;
    std::vector<uint32_t> xs;

  private:
    size_t throw_at_;
    size_t spans_ = 0;
};

TEST(TraceIo, SinkExceptionLeavesReplayAfterItsSpan)
{
    const std::string path = tempTrace("trace_sink_throw.bin");
    writeSpanClip(path, 1, 12);
    TraceReader r(path);
    ThrowingSink sink(5);
    try {
        r.replayFrame(sink);
        FAIL() << "the sink's exception did not leave replayFrame";
    } catch (...) {
        EXPECT_TRUE(std::current_exception() == sink.thrown)
            << "replayFrame threw another exception object";
    }
    EXPECT_EQ(sink.xs, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(r.replayFrame(sink)); // resumes at span 6
    EXPECT_EQ(sink.xs,
              (std::vector<uint32_t>{0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}));
    EXPECT_FALSE(r.replayFrame(sink));
    std::remove(path.c_str());
}

TEST(TraceIo, ReplayStaysFinishedAfterTheTrailer)
{
    const std::string path = tempTrace("trace_finished.bin");
    writeSpanClip(path, 3, 4);
    TraceReader r(path);
    RecordingSink sink;
    EXPECT_EQ(r.replayAll(sink), 3u);
    const size_t events = sink.events.size();
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(r.replayFrame(sink));
    EXPECT_EQ(r.replayAll(sink), 0u);
    EXPECT_EQ(sink.events.size(), events);
    std::remove(path.c_str());
}

// --- Trace-replay differentials -------------------------------------------

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
checkCallSequence(Workload (*build)(), const char *name)
{
    for (FilterMode filter : {FilterMode::Bilinear, FilterMode::Trilinear}) {
        const std::string ctx =
            std::string(name) + "-" + filterModeName(filter);
        const std::string path = tempTrace(("calls_" + ctx).c_str());
        Workload wl = build();
        TraceWriter writer(path);
        CallLog given(&writer);
        Rasterizer raster(kDiffWidth, kDiffHeight);
        raster.setFilter(filter);
        raster.setSink(&given);
        const float aspect =
            static_cast<float>(kDiffWidth) / static_cast<float>(kDiffHeight);
        for (int f = 0; f < kDiffFrames; ++f) {
            raster.renderFrame(wl.scene,
                               wl.cameraAtFrame(f, wl.default_frames, aspect),
                               *wl.textures);
            writer.endFrame();
            given.endFrame();
        }
        writer.close();
        const std::vector<CallLog::Call> calls =
            expectReplayMakesCalls(path, given, ctx);
        EXPECT_GT(std::count(calls.begin(), calls.end(),
                             CallLog::Call{CallLog::kBatch, 4096}),
                  0)
            << ctx << ": no span reaches the 4096 cap";
        std::remove(path.c_str());
    }
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

TEST(TraceReplayDifferential, VillageCallSequence)
{
    checkCallSequence(village, "village");
}

TEST(TraceReplayDifferential, CityCallSequence)
{
    checkCallSequence(city, "city");
}

} // namespace
} // namespace mltc
