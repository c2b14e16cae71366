/**
 * @file
 * Unit tests for the crash-scoped flight recorder: bounded rings keep
 * the newest events across wraparound, multi-threaded recording is
 * join-safe, the dumped bundle is schema-valid JSON (re-parsed here;
 * the Chrome-trace invariants are enforced end to end by
 * trace_validate), dumps survive injected I/O faults through the
 * atomic-write retry ladder, and the global install slot downgrades
 * every helper to a no-op when empty.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <new>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/json.hpp"

namespace mltc {
namespace {

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

/** Install @p config on the global backend for one test's scope. */
class ScopedFaults
{
  public:
    explicit ScopedFaults(const IoFaultConfig &config) : injector_(config)
    {
        FileBackend::instance().installInjector(&injector_);
    }
    ~ScopedFaults() { FileBackend::instance().installInjector(nullptr); }

  private:
    IoFaultInjector injector_;
};

void
removeBundle(const std::string &prefix)
{
    const std::string dir = prefix + ".flight";
    std::remove((dir + "/trace.json").c_str());
    std::remove((dir + "/metrics.jsonl").c_str());
    ::rmdir(dir.c_str());
}

// ---------------------------------------------------------------------------
// Ring behaviour.

TEST(FlightRecorder, KeepsNewestEventsAcrossWraparound)
{
    FlightRecorder::Config cfg;
    cfg.workers = 1;
    cfg.capacity = 4;
    FlightRecorder fr(cfg);
    for (int i = 0; i < 10; ++i)
        fr.record("event", "test", FlightEvent::Instant,
                  static_cast<double>(i));
    EXPECT_EQ(fr.recorded(), 10u);
    const std::vector<FlightEvent> events = fr.snapshot();
    ASSERT_EQ(events.size(), 4u); // bounded: the last moments only
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 7 + i); // seq 7..10 survive
        EXPECT_DOUBLE_EQ(events[i].value, 6.0 + static_cast<double>(i));
    }
}

TEST(FlightRecorder, TruncatesLongNamesSafely)
{
    FlightRecorder::Config cfg;
    cfg.workers = 1;
    cfg.capacity = 4;
    FlightRecorder fr(cfg);
    const std::string long_name(200, 'x');
    fr.record(long_name.c_str(), "category-name-too-long-to-fit");
    const auto events = fr.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_LT(std::string(events[0].name).size(), sizeof events[0].name);
    EXPECT_LT(std::string(events[0].cat).size(), sizeof events[0].cat);
}

TEST(FlightRecorder, MultiThreadedRecordThenSnapshot)
{
    FlightRecorder::Config cfg;
    cfg.workers = 4;
    cfg.capacity = 64;
    FlightRecorder fr(cfg);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&fr]() {
            for (int i = 0; i < 50; ++i)
                fr.record("worker.event", "test");
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(fr.recorded(), 200u);
    const auto events = fr.snapshot();
    EXPECT_FALSE(events.empty());
    EXPECT_LE(events.size(), 4u * 64u);
    // Global sequence order, no duplicates.
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_LT(events[i - 1].seq, events[i].seq);
}

// ---------------------------------------------------------------------------
// The dumped bundle.

TEST(FlightRecorder, DumpWritesSchemaValidBundle)
{
    const std::string prefix = tempPath("flight_dump");
    MetricsRegistry registry(true);
    registry.counter("hits", {{"stream", "1"}}).inc(3);

    FlightRecorder::Config cfg;
    cfg.workers = 2;
    cfg.capacity = 16;
    cfg.prefix = prefix;
    cfg.registry = &registry;
    FlightRecorder fr(cfg);
    fr.record("stream.quarantined", "resilience", FlightEvent::Instant,
              1.0);
    fr.record("s1.l1_misses", "metric", FlightEvent::Metric, 42.0);
    fr.record("frame", "frame", FlightEvent::Frame, 5.0);

    const std::string dir = fr.dump("quarantine");
    ASSERT_EQ(dir, prefix + ".flight");

    // trace.json: object with traceEvents; instants carry value + seq,
    // the final flight.dumped instant carries the reason.
    const JsonValue trace = parseJson(fileText(dir + "/trace.json"));
    const JsonValue *events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    const auto &arr = events->asArray();
    ASSERT_GE(arr.size(), 4u); // 3 metadata + 3 events + flight.dumped
    const JsonValue &last = arr.back();
    EXPECT_EQ(last.at("name").asString(), "flight.dumped");
    EXPECT_EQ(last.at("ph").asString(), "i");
    EXPECT_EQ(last.at("args").at("reason").asString(), "quarantine");
    bool saw_quarantine = false;
    for (const JsonValue &ev : arr)
        if (ev.find("name") &&
            ev.at("name").asString() == "stream.quarantined") {
            saw_quarantine = true;
            EXPECT_DOUBLE_EQ(ev.at("args").at("value").asNumber(), 1.0);
            EXPECT_GT(ev.at("args").at("seq").asNumber(), 0.0);
        }
    EXPECT_TRUE(saw_quarantine);

    // metrics.jsonl: a dump-summary row, then the registry snapshot.
    std::istringstream metrics(fileText(dir + "/metrics.jsonl"));
    std::string line;
    ASSERT_TRUE(std::getline(metrics, line));
    const JsonValue summary = parseJson(line);
    EXPECT_EQ(summary.at("flight").at("reason").asString(), "quarantine");
    EXPECT_DOUBLE_EQ(summary.at("flight").at("events").asNumber(), 3.0);
    ASSERT_TRUE(std::getline(metrics, line));
    const JsonValue snapshot = parseJson(line);
    EXPECT_DOUBLE_EQ(
        snapshot.at("counters").at("hits{stream=1}").asNumber(), 3.0);

    removeBundle(prefix);
}

TEST(FlightRecorder, DumpSurvivesInjectedIoFaults)
{
    const std::string prefix = tempPath("flight_faulty");
    FlightRecorder::Config cfg;
    cfg.workers = 1;
    cfg.capacity = 8;
    cfg.prefix = prefix;
    FlightRecorder fr(cfg);
    fr.record("watchdog.fired", "resilience");

    IoFaultConfig faults;
    faults.schedule.push_back({IoFaultKind::Eio, 1});
    faults.schedule.push_back({IoFaultKind::TornRename, 1});
    std::string dir;
    {
        ScopedFaults scoped(faults);
        dir = fr.dump("watchdog");
    }
    // The atomic-write retry ladder rides through both scheduled
    // faults; the committed bundle parses cleanly.
    ASSERT_EQ(dir, prefix + ".flight");
    EXPECT_NO_THROW(parseJson(fileText(dir + "/trace.json")));
    removeBundle(prefix);
}

TEST(FlightRecorder, DumpWithoutPrefixIsRefused)
{
    FlightRecorder::Config cfg;
    cfg.workers = 1;
    cfg.capacity = 4;
    FlightRecorder fr(cfg);
    fr.record("event", "test");
    EXPECT_EQ(fr.dump("quarantine"), "");
}

TEST(FlightRecorder, LaterDumpOverwritesWithFresherState)
{
    const std::string prefix = tempPath("flight_twice");
    FlightRecorder::Config cfg;
    cfg.workers = 1;
    cfg.capacity = 8;
    cfg.prefix = prefix;
    FlightRecorder fr(cfg);
    fr.record("first", "test");
    ASSERT_NE(fr.dump("quarantine"), "");
    fr.record("second", "test");
    const std::string dir = fr.dump("io");
    const std::string trace = fileText(dir + "/trace.json");
    EXPECT_NE(trace.find("\"second\""), std::string::npos);
    EXPECT_NE(trace.find("\"io\""), std::string::npos);
    removeBundle(prefix);
}

// ---------------------------------------------------------------------------
// The global install slot.

TEST(FlightRecorder, GlobalHelpersAreNoOpsWhenAbsent)
{
    ASSERT_EQ(hooks().flight(), nullptr);
    event("event", "test");
    flightMetric("metric", 1.0);
    flightFrame(3);
    EXPECT_EQ(flightDump("quarantine"), "");
}

TEST(FlightRecorder, GlobalHelpersRecordWhenInstalled)
{
    FlightRecorder::Config cfg;
    cfg.workers = 1;
    cfg.capacity = 8;
    FlightRecorder fr(cfg);
    installFlightRecorder(&fr); // the spelling perfbench uses
    event("stream.quarantined", "resilience", 2.0);
    flightMetric("s0.host_bytes", 1024.0);
    flightFrame(7);
    installFlightRecorder(nullptr);
    event("after.removal", "test"); // must not land
    const auto events = fr.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_STREQ(events[0].name, "stream.quarantined");
    EXPECT_EQ(events[1].kind, FlightEvent::Metric);
    EXPECT_EQ(events[2].kind, FlightEvent::Frame);
    EXPECT_DOUBLE_EQ(events[2].value, 7.0);
}

TEST(FlightRecorder, RebuiltRecorderAtSameAddressStartsFreshRings)
{
    // A thread's ring index belongs to one recorder instance: a 1-ring
    // recorder built where an 8-ring one lived must not be indexed
    // with the ring the thread drew from the old one.
    alignas(FlightRecorder) unsigned char buf[sizeof(FlightRecorder)];
    FlightRecorder::Config eight;
    eight.workers = 8;
    eight.capacity = 4;
    FlightRecorder *fr = new (buf) FlightRecorder(eight);
    for (int i = 0; i < 7; ++i) // rings 0..6 go to other threads
        std::thread([fr] { fr->record("filler", "test"); }).join();
    fr->record("ring7", "test"); // this thread draws ring 7
    ASSERT_EQ(fr->snapshot().size(), 8u);
    fr->~FlightRecorder();

    FlightRecorder::Config one = eight;
    one.workers = 1;
    fr = new (buf) FlightRecorder(one);
    fr->record("after.rebuild", "test");
    const auto events = fr->snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "after.rebuild");
    fr->~FlightRecorder();
}

} // namespace
} // namespace mltc
