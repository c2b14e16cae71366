/**
 * @file
 * Unit tests for the observability layer: metric key canonicalization,
 * the enabled/disabled metrics registry, per-frame JSONL snapshots, the
 * Chrome trace writer (schema-checked by re-parsing its own output),
 * the hook registry as Observability and Stage drive it, the shared CLI
 * flags, Observability's flight path, and checkpoint/resume
 * bit-equivalence of a CacheSim running
 * with 3C classification enabled.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <vector>

#include "core/cache_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/trace_event.hpp"
#include "sim/multi_stream_runner.hpp"
#include "texture/procedural.hpp"
#include "texture/texture_manager.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/serializer.hpp"

namespace mltc {
namespace {

// PID-suffixed: ctest runs each test case as its own process, possibly
// in parallel, so shared fixed names would race on create/remove.
std::string
tempPath(const char *name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

std::string
fileText(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(MetricKey, CanonicalSortedLabels)
{
    EXPECT_EQ(metricKey("l2.miss", {}), "l2.miss");
    EXPECT_EQ(metricKey("l2.miss", {{"tex", "5"}, {"level", "2"}}),
              "l2.miss{level=2,tex=5}");
    try {
        metricKey("x", {{"tex", "1"}, {"tex", "2"}});
        FAIL() << "duplicate label keys must throw";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::BadArgument);
    }
}

TEST(MetricsRegistry, EnabledHandlesShareStorage)
{
    MetricsRegistry reg(true);
    CounterHandle a = reg.counter("l1.miss", {{"sim", "A"}});
    CounterHandle b = reg.counter("l1.miss", {{"sim", "A"}});
    ASSERT_TRUE(a);
    a.inc(3);
    b.inc();
    EXPECT_EQ(a.value(), 4u);
    EXPECT_EQ(reg.counterValue("l1.miss{sim=A}"), 4u);
    a.set(10);
    EXPECT_EQ(b.value(), 10u);

    GaugeHandle g = reg.gauge("l1.hit_rate");
    g.set(0.75);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("l1.hit_rate"), 0.75);

    HistogramHandle h = reg.histogram("fetch.us", {}, 1024);
    h.observe(5);
    h.observe(7);
    ASSERT_NE(h.histogram(), nullptr);
    EXPECT_EQ(h.histogram()->count(), 2u);
    EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, KindClashThrows)
{
    MetricsRegistry reg(true);
    reg.counter("metric.x");
    try {
        reg.gauge("metric.x");
        FAIL() << "re-registering a counter as a gauge must throw";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::BadArgument);
    }
}

TEST(MetricsRegistry, DisabledModeIsInert)
{
    MetricsRegistry reg(false);
    CounterHandle c = reg.counter("l1.miss");
    GaugeHandle g = reg.gauge("rate");
    HistogramHandle h = reg.histogram("dist");
    EXPECT_FALSE(c);
    EXPECT_FALSE(g);
    EXPECT_FALSE(h);
    c.inc(100);
    g.set(1.0);
    h.observe(1);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(reg.size(), 0u); // no storage, no keys, no allocation
    // The snapshot of a disabled registry is still one valid JSON row.
    const JsonValue row = parseJson(reg.frameSnapshotJson(7));
    EXPECT_DOUBLE_EQ(row.at("frame").asNumber(), 7.0);
}

TEST(MetricsRegistry, FrameSnapshotShape)
{
    MetricsRegistry reg(true);
    reg.counter("l1.miss", {{"sim", "A"}}).inc(42);
    reg.gauge("tlb.hit_rate").set(0.5);
    reg.histogram("fetch.us").observe(9);

    const JsonValue row = parseJson(reg.frameSnapshotJson(3));
    EXPECT_DOUBLE_EQ(row.at("frame").asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(row.at("counters").at("l1.miss{sim=A}").asNumber(),
                     42.0);
    EXPECT_DOUBLE_EQ(row.at("gauges").at("tlb.hit_rate").asNumber(), 0.5);
    EXPECT_TRUE(row.at("histograms").at("fetch.us").isObject());
}

TEST(MetricsRegistry, WritesFrameSnapshotsToSink)
{
    const std::string path = tempPath("metrics.jsonl");
    {
        JsonlFileSink sink(path);
        MetricsRegistry reg(true);
        CounterHandle c = reg.counter("l1.miss");
        for (int frame = 0; frame < 3; ++frame) {
            c.inc(10);
            reg.writeFrameSnapshot(sink, frame);
        }
        sink.close();
    }
    std::ifstream in(path);
    std::string line;
    int frames = 0;
    while (std::getline(in, line)) {
        const JsonValue row = parseJson(line);
        EXPECT_DOUBLE_EQ(row.at("frame").asNumber(), frames);
        // Cumulative, not per-frame: consumers diff adjacent rows.
        EXPECT_DOUBLE_EQ(row.at("counters").at("l1.miss").asNumber(),
                         10.0 * (frames + 1));
        ++frames;
    }
    EXPECT_EQ(frames, 3);
    std::remove(path.c_str());
}

/** checkTraceSchema() count that is not checked. */
constexpr size_t kAnyCount = SIZE_MAX;

/** Re-parse a trace file and verify the Chrome trace-event schema. */
void
checkTraceSchema(const std::string &path, size_t expect_durations,
                 size_t expect_counters, size_t expect_instants)
{
    const JsonValue doc = parseJson(fileText(path));
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
    const auto &events = doc.at("traceEvents").asArray();

    size_t opens = 0, durations = 0, counters = 0, instants = 0;
    double last_ts = -1.0;
    for (const JsonValue &ev : events) {
        const std::string &ph = ev.at("ph").asString();
        EXPECT_TRUE(ev.at("pid").isNumber());
        EXPECT_TRUE(ev.at("tid").isNumber());
        if (ph == "M")
            continue;
        const double ts = ev.at("ts").asNumber();
        EXPECT_GE(ts, last_ts) << "timestamps must be non-decreasing";
        last_ts = ts;
        if (ph == "B") {
            EXPECT_TRUE(ev.at("name").isString());
            ++opens;
            ++durations;
        } else if (ph == "E") {
            ASSERT_GT(opens, 0u) << "E with no open B";
            --opens;
        } else if (ph == "C") {
            ++counters;
            for (const auto &[series, v] : ev.at("args").asObject())
                EXPECT_TRUE(v.isNumber()) << series;
        } else if (ph == "i") {
            EXPECT_TRUE(ev.at("name").isString());
            ++instants;
        } else {
            FAIL() << "unexpected phase " << ph;
        }
    }
    EXPECT_EQ(opens, 0u) << "unbalanced B/E pairs";
    EXPECT_EQ(durations, expect_durations);
    EXPECT_EQ(counters, expect_counters);
    if (expect_instants != kAnyCount) {
        EXPECT_EQ(instants, expect_instants);
    }
}

TEST(ChromeTraceWriter, EmitsValidChromeTrace)
{
    const std::string path = tempPath("trace.json");
    {
        ChromeTraceWriter t(path);
        t.begin("frame", "frame");
        t.begin("raster.texture_pass", "raster");
        t.end();
        t.instant("checkpoint.saved", "runner");
        t.counter("miss_rates", {{"l1", 0.25}, {"tlb", 0.5}});
        t.end();
        EXPECT_EQ(t.openScopes(), 0u);
        t.close();
    }
    checkTraceSchema(path, 2, 1, 1);
    std::remove(path.c_str());
}

TEST(ChromeTraceWriter, CloseBalancesLeftoverScopes)
{
    const std::string path = tempPath("trace_open.json");
    {
        ChromeTraceWriter t(path);
        t.begin("outer", "test");
        t.begin("inner", "test");
        EXPECT_EQ(t.openScopes(), 2u);
        t.close(); // must emit the two missing E events
    }
    checkTraceSchema(path, 2, 0, 0);
    std::remove(path.c_str());
}

TEST(ChromeTraceWriter, StageStatsAggregateSelfTime)
{
    const std::string path = tempPath("trace_stats.json");
    ChromeTraceWriter t(path);
    t.begin("outer", "test");
    t.begin("inner", "test");
    t.end();
    t.end();
    t.begin("inner", "test");
    t.end();
    t.addHot(HotStage::CacheSimAccess, 1500000);
    t.close();

    const auto stats = t.stageStats();
    ASSERT_EQ(stats.size(), 3u);
    uint64_t outer_total = 0, outer_self = 0, inner_total = 0;
    bool saw_aggregate = false;
    for (const StageStat &s : stats) {
        EXPECT_LE(s.self_us, s.total_us) << s.name;
        if (s.name == "outer") {
            EXPECT_EQ(s.count, 1u);
            outer_total = s.total_us;
            outer_self = s.self_us;
        } else if (s.name == "inner") {
            EXPECT_EQ(s.count, 2u);
            inner_total = s.total_us;
        } else if (s.name == "cachesim.access") {
            EXPECT_EQ(s.count, 1u);
            EXPECT_EQ(s.total_us, 1500u);
            EXPECT_EQ(s.self_us, 1500u);
            saw_aggregate = true;
        }
    }
    EXPECT_TRUE(saw_aggregate);
    // outer's self time excludes the first inner run (but not the
    // second, which ran outside outer).
    EXPECT_LE(outer_self, outer_total);
    EXPECT_GE(inner_total, 0u);
    std::remove(path.c_str());
}

TEST(GlobalTracer, HooksFeedInstalledTracer)
{
    const std::string path = tempPath("trace_hooks.json");
    std::vector<StageStat> stats;
    {
        ChromeTraceWriter t(path);
        hooks().install(&t);
        { Stage scope("hooked", "test"); }
        {
            Stage hot(HotStage::CacheSimAccess);
            // A little real work so steady_clock can tick.
            volatile uint64_t sink = 0;
            for (uint64_t i = 0; i < 50000; ++i)
                sink = sink + i;
        }
        hooks().uninstall(&t);
        t.close();
        stats = t.stageStats();
    }
    ASSERT_EQ(hooks().tracer(), nullptr);
    // The hot stage reaches the stage table but not the timeline.
    checkTraceSchema(path, 1, 0, 0);
    ASSERT_EQ(stats.size(), 2u);
    for (const StageStat &s : stats)
        EXPECT_EQ(s.count, 1u) << s.name;
    std::remove(path.c_str());
}

TEST(ObsCli, ParsesSharedFlags)
{
    const char *argv[] = {"prog", "--metrics-out=m.jsonl",
                          "--trace-out=t.json", "--miss-classes",
                          "--top-textures=3"};
    const CommandLine cli(5, argv);
    const ObsConfig cfg = obsFromCli(cli);
    EXPECT_EQ(cfg.metrics_path, "m.jsonl");
    EXPECT_EQ(cfg.trace_path, "t.json");
    EXPECT_TRUE(cfg.miss_classes);
    EXPECT_EQ(cfg.top_textures, 3u);
    EXPECT_TRUE(cfg.anyEnabled());

    const char *none[] = {"prog"};
    EXPECT_FALSE(obsFromCli(CommandLine(1, none)).anyEnabled());
}

TEST(Observability, OwnsSinksAndGlobalTracer)
{
    ObsConfig cfg;
    cfg.metrics_path = tempPath("obs_metrics.jsonl");
    cfg.trace_path = tempPath("obs_trace.json");
    {
        Observability obs(cfg);
        EXPECT_TRUE(obs.metrics().enabled());
        ASSERT_NE(obs.trace(), nullptr);
        EXPECT_EQ(hooks().tracer(), obs.trace());
        ASSERT_NE(obs.metricsSink(), nullptr);
        obs.metrics().counter("x").inc();
        obs.metrics().writeFrameSnapshot(*obs.metricsSink(), 0);
        obs.close();
        EXPECT_EQ(hooks().tracer(), nullptr);
    }
    const JsonValue row = parseJson(fileText(cfg.metrics_path));
    EXPECT_DOUBLE_EQ(row.at("counters").at("x").asNumber(), 1.0);
    checkTraceSchema(cfg.trace_path, 0, 0, 0);
    std::remove(cfg.metrics_path.c_str());
    std::remove(cfg.trace_path.c_str());
}

/** A deterministic access pattern that misses across several frames. */
void
driveFrames(CacheSim &sim, int first_frame, int last_frame)
{
    for (int f = first_frame; f < last_frame; ++f) {
        sim.bindTexture(1);
        for (uint32_t i = 0; i < 3000; ++i) {
            const uint32_t x = (i * 7 + static_cast<uint32_t>(f) * 13) & 255;
            const uint32_t y = (i * 3) & 255;
            sim.access(x, y, (i % 5 == 0) ? 1 : 0);
        }
        sim.endFrame();
    }
}

TEST(Observability, ClassifyingSimResumesBitIdentically)
{
    TextureManager tm;
    tm.load("tex", MipPyramid(makeChecker(256, 8, 0xff0000ffu,
                                          0xffffffffu)));
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 * 1024, 64 * 1024);
    cfg.tlb_entries = 8;
    cfg.classify_misses = true;

    // Straight run: 6 frames end to end.
    CacheSim straight(tm, cfg, "straight");
    driveFrames(straight, 0, 6);

    // Interrupted run: 3 frames, checkpoint, resume, 3 more frames.
    const std::string ckpt = tempPath("classify_resume.snap");
    CacheSim before(tm, cfg, "before");
    driveFrames(before, 0, 3);
    {
        SnapshotWriter w(ckpt);
        before.save(w);
        w.finish();
    }
    CacheSim resumed(tm, cfg, "resumed");
    {
        SnapshotReader r(ckpt);
        resumed.load(r);
        r.expectEnd();
    }
    driveFrames(resumed, 3, 6);

    // Classification must actually be running and producing all counts.
    ASSERT_NE(straight.l1Classifier(), nullptr);
    ASSERT_NE(straight.l2Classifier(), nullptr);
    EXPECT_GT(straight.l1Classifier()->totals().total(), 0u);
    EXPECT_EQ(straight.l1Classifier()->totals().total(),
              straight.totals().l1_misses);
    EXPECT_EQ(straight.totals().l1_compulsory +
                  straight.totals().l1_capacity +
                  straight.totals().l1_conflict,
              straight.totals().l1_misses);

    // Totals (including the 3C frame counters) must match exactly.
    const CacheFrameStats &a = straight.totals();
    const CacheFrameStats &b = resumed.totals();
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1_misses, b.l1_misses);
    EXPECT_EQ(a.l2_full_hits, b.l2_full_hits);
    EXPECT_EQ(a.host_bytes, b.host_bytes);
    EXPECT_EQ(a.l1_compulsory, b.l1_compulsory);
    EXPECT_EQ(a.l1_capacity, b.l1_capacity);
    EXPECT_EQ(a.l1_conflict, b.l1_conflict);
    EXPECT_EQ(a.l2_compulsory, b.l2_compulsory);
    EXPECT_EQ(a.l2_capacity, b.l2_capacity);
    EXPECT_EQ(a.l2_conflict, b.l2_conflict);

    // The strongest form: final snapshots must be byte-identical.
    const std::string pa = tempPath("classify_a.snap");
    const std::string pb = tempPath("classify_b.snap");
    {
        SnapshotWriter wa(pa);
        straight.save(wa);
        wa.finish();
        SnapshotWriter wb(pb);
        resumed.save(wb);
        wb.finish();
    }
    EXPECT_EQ(fileText(pa), fileText(pb));
    std::remove(ckpt.c_str());
    std::remove(pa.c_str());
    std::remove(pb.c_str());
}

TEST(Observability, SnapshotWithClassifierRejectedByPlainSim)
{
    TextureManager tm;
    tm.load("tex", MipPyramid(makeChecker(256, 8, 0xff0000ffu,
                                          0xffffffffu)));
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 * 1024, 64 * 1024);
    cfg.classify_misses = true;
    CacheSim classifying(tm, cfg, "c");
    driveFrames(classifying, 0, 1);
    const std::string path = tempPath("classify_flag.snap");
    {
        SnapshotWriter w(path);
        classifying.save(w);
        w.finish();
    }
    CacheSimConfig plain_cfg = cfg;
    plain_cfg.classify_misses = false;
    CacheSim plain(tm, plain_cfg, "p");
    SnapshotReader r(path);
    EXPECT_THROW(plain.load(r), Exception);
    std::remove(path.c_str());
}

TEST(Observability, NoTracerMeansNoAccessTiming)
{
    ASSERT_EQ(hooks().tracer(), nullptr);
    TextureManager tm;
    tm.load("tex", MipPyramid(makeChecker(256, 8, 0xff0000ffu,
                                          0xffffffffu)));
    CacheSim sim(tm, CacheSimConfig::twoLevel(2 * 1024, 64 * 1024));
    // A writer that is not installed sees none of the access path.
    const std::string path = tempPath("uninstalled.json");
    ChromeTraceWriter t(path);
    driveFrames(sim, 0, 1);
    t.close();
    EXPECT_TRUE(t.stageStats().empty());
    std::remove(path.c_str());
}

TEST(Observability, FlightOutInstallsRecorderUntilClose)
{
    ObsConfig cfg;
    cfg.flight_out = tempPath("obs_flight");
    Observability obs(cfg);
    ASSERT_NE(obs.flight(), nullptr);
    EXPECT_EQ(hooks().flight(), obs.flight());
    // A recorder alone must leave every Stage unobserved.
    EXPECT_FALSE(hooks().timed());
    obs.close();
    EXPECT_EQ(hooks().flight(), nullptr);
}

TEST(Observability, QuarantineLeavesSchemaValidFlightBundle)
{
    ObsConfig cfg;
    cfg.flight_out = tempPath("obs_quarantine");
    Observability obs(cfg);
    MultiStreamConfig ms;
    ms.width = 64;
    ms.height = 48;
    ms.rounds = 3;
    ms.l1_bytes = 4ull << 10;
    ms.l2_bytes = 256ull << 10;
    ms.jobs = 1;
    StreamSpec healthy;
    StreamSpec failing;
    failing.fail_at_round = 1;
    ms.streams = {healthy, failing};
    MultiStreamRunner runner(ms);
    runner.setObservability(&obs);
    const RunManifest manifest = runner.run({});
    EXPECT_EQ(manifest.quarantinedCount(), 1u);
    obs.close();

    const std::string dir = cfg.flight_out + ".flight";
    checkTraceSchema(dir + "/trace.json", 0, 0, kAnyCount);
    bool saw_quarantine = false;
    std::string reason;
    const JsonValue doc = parseJson(fileText(dir + "/trace.json"));
    for (const JsonValue &ev : doc.at("traceEvents").asArray()) {
        const std::string &name = ev.at("name").asString();
        saw_quarantine |= name == "stream.quarantined";
        if (name == "flight.dumped")
            reason = ev.at("args").at("reason").asString();
    }
    EXPECT_TRUE(saw_quarantine);
    EXPECT_EQ(reason, "quarantine");
    std::remove((dir + "/trace.json").c_str());
    std::remove((dir + "/metrics.jsonl").c_str());
    ::rmdir(dir.c_str());
}

TEST(Observability, TearingDownABundleKeepsOtherBackendsInstalled)
{
    // A bundle removes only the backends it installed itself: one with
    // no backend configured leaves the process's flight recorder be.
    FlightRecorder outer(FlightRecorder::Config{});
    hooks().install(&outer);
    {
        Observability bare(ObsConfig{});
        EXPECT_EQ(hooks().flight(), &outer);
        bare.close();
    }
    EXPECT_EQ(hooks().flight(), &outer);
    hooks().uninstall(&outer);
    EXPECT_EQ(hooks().flight(), nullptr);
}

} // namespace
} // namespace mltc
