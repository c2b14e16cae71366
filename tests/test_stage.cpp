/**
 * @file
 * Unit tests for the instrumentation primitive (obs/stage.hpp): the
 * hook registry, what each Stage kind sends to the tracer and the
 * profiler, the per-thread hot-stage sums, event() fan-out to the
 * tracer and the flight recorder, and per-instance thread slots.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/stage.hpp"
#include "obs/trace_event.hpp"
#include "util/json.hpp"

namespace mltc {
namespace {

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

/** The trace's non-metadata events as (ph, name) strings. */
std::vector<std::string>
traceEvents(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const JsonValue doc = parseJson(ss.str());
    std::vector<std::string> out;
    for (const JsonValue &ev : doc.at("traceEvents").asArray()) {
        const std::string &ph = ev.at("ph").asString();
        if (ph == "M")
            continue;
        out.push_back(ph + ":" +
                      (ev.find("name") ? ev.at("name").asString() : ""));
    }
    return out;
}

StageStat
statNamed(const ChromeTraceWriter &t, const std::string &name)
{
    for (const StageStat &s : t.stageStats())
        if (s.name == name)
            return s;
    return StageStat{};
}

TEST(Stage, InertWithoutBackends)
{
    ASSERT_EQ(hooks().tracer(), nullptr);
    ASSERT_EQ(hooks().profiler(), nullptr);
    ASSERT_EQ(hooks().flight(), nullptr);
    EXPECT_FALSE(hooks().timed());
    { Stage timeline("nothing", "test", /*counters=*/true); }
    { Stage hot(HotStage::CacheSimAccess); }
    { Stage annotation(annotate("leg:none"), /*counters=*/true); }
    event("nothing", "test", 1.0, {{"k", "v"}});
    EXPECT_EQ(flightDump("test"), "");
}

TEST(Stage, FlightRecorderAloneLeavesTimingOff)
{
    FlightRecorder::Config fc;
    fc.workers = 1;
    fc.capacity = 8;
    FlightRecorder recorder(fc);
    hooks().install(&recorder);
    EXPECT_FALSE(hooks().timed());
    { Stage hot(HotStage::SamplerSample); }
    event("only.flight", "test", 3.0);
    hooks().uninstall(&recorder);
    const auto events = recorder.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "only.flight");
    EXPECT_DOUBLE_EQ(events[0].value, 3.0);
}

TEST(Stage, UninstallRemovesOnlyTheInstalledBackend)
{
    FlightRecorder a(FlightRecorder::Config{});
    FlightRecorder b(FlightRecorder::Config{});
    hooks().install(&a);
    hooks().uninstall(&b); // not installed: a stays
    EXPECT_EQ(hooks().flight(), &a);
    hooks().uninstall(static_cast<FlightRecorder *>(nullptr));
    EXPECT_EQ(hooks().flight(), &a);
    hooks().install(&b); // replaces a
    hooks().uninstall(&a);
    EXPECT_EQ(hooks().flight(), &b);
    hooks().uninstall(&b);
    EXPECT_EQ(hooks().flight(), nullptr);

    const std::string path = tempPath("stage_timed.json");
    ChromeTraceWriter t(path);
    hooks().install(&t);
    EXPECT_TRUE(hooks().timed());
    t.close(); // a closed writer leaves the registry
    EXPECT_EQ(hooks().tracer(), nullptr);
    EXPECT_FALSE(hooks().timed());
    std::remove(path.c_str());
}

TEST(Stage, EachKindReachesItsBackends)
{
    const std::string path = tempPath("stage_kinds.json");
    ProfilerConfig pc;
    pc.hz = 10000;
    pc.counters = false;
    pc.out_prefix = tempPath("stage_kinds");
    StageProfiler profiler(pc);
    ChromeTraceWriter tracer(path);
    hooks().install(&profiler);
    hooks().install(&tracer);
    {
        Stage timeline("outer", "test");
        Stage annotation(annotate("leg:a"));
        Stage hot(HotStage::CacheSimAccess);
        // Hold the stack so the sampler must see it.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    hooks().uninstall(&tracer);
    hooks().uninstall(&profiler);
    tracer.close();
    profiler.stopSampler();
    profiler.writeOutputs();

    // Only the timeline stage writes trace events.
    EXPECT_EQ(traceEvents(path),
              (std::vector<std::string>{"B:outer", "E:"}));
    // Timeline and hot stages reach the stage table; the hot row's
    // count is its scope entries and its self time is its total.
    EXPECT_EQ(statNamed(tracer, "outer").count, 1u);
    const StageStat hot = statNamed(tracer, "cachesim.access");
    EXPECT_EQ(hot.count, 1u);
    EXPECT_GE(hot.total_us, 90000u);
    EXPECT_EQ(hot.self_us, hot.total_us);
    EXPECT_EQ(statNamed(tracer, "leg:a").count, 0u);
    // All three are profiler frames.
    const FoldedProfile folded = loadFolded(pc.out_prefix + ".folded");
    EXPECT_TRUE(folded.stacks.count("outer;leg:a;cachesim.access"));

    std::remove(path.c_str());
    std::remove((pc.out_prefix + ".folded").c_str());
    std::remove((pc.out_prefix + ".json").c_str());
}

TEST(Stage, HotSumsAreKeptPerThread)
{
    const std::string path = tempPath("stage_threads.json");
    ChromeTraceWriter tracer(path);
    hooks().install(&tracer);
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i)
        threads.emplace_back([] {
            for (int j = 0; j < 1000; ++j) {
                Stage hot(HotStage::SamplerSample);
            }
        });
    for (std::thread &th : threads)
        th.join();
    hooks().uninstall(&tracer);
    tracer.close();
    EXPECT_EQ(statNamed(tracer, "sampler.sample").count, 4000u);
    EXPECT_TRUE(traceEvents(path).empty());
    std::remove(path.c_str());
}

TEST(Stage, EventReachesTracerAndFlightRecorder)
{
    const std::string path = tempPath("stage_event.json");
    ChromeTraceWriter tracer(path);
    FlightRecorder recorder(FlightRecorder::Config{});
    hooks().install(&tracer);
    hooks().install(&recorder);
    event("slo.fired", "slo", 0.5, {{"rule", "r"}, {"stream", "1"}});
    event("checkpoint.saved", "runner");
    hooks().uninstall(&recorder);
    hooks().uninstall(&tracer);
    tracer.close();

    EXPECT_EQ(traceEvents(path), (std::vector<std::string>{
                                     "i:slo.fired", "i:checkpoint.saved"}));
    const auto events = recorder.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_STREQ(events[0].name, "slo.fired");
    EXPECT_DOUBLE_EQ(events[0].value, 0.5);
    EXPECT_STREQ(events[1].cat, "runner");
    std::remove(path.c_str());
}

TEST(Stage, ThreadSlotsAreKeyedByInstance)
{
    struct Owner;
    auto a = std::make_unique<ThreadSlots<Owner>>();
    EXPECT_EQ(a->mine(), 0u);
    EXPECT_EQ(a->mine(), 0u); // cached
    std::thread([&a] { EXPECT_EQ(a->mine(), 1u); }).join();
    EXPECT_EQ(a->claimed(), 2u);
    // A new instance, wherever it lives, hands out fresh indices.
    a = std::make_unique<ThreadSlots<Owner>>();
    std::thread([&a] { EXPECT_EQ(a->mine(), 0u); }).join();
    EXPECT_EQ(a->mine(), 1u);
}

} // namespace
} // namespace mltc
