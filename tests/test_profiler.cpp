/**
 * @file
 * Unit tests for the continuous profiling plane: the collapsed-stack
 * folded writer (escaping, zero-sample omission, deterministic
 * ordering), loadFolded's self/total aggregation and corruption
 * handling, the differential profile (threshold semantics, one-sided
 * stages, noise suppression), a real sampling capture through the
 * Stage scopes against an installed profiler, the mandatory perf_event_open
 * fallback under a denied syscall, annotation interning, and the
 * flight-dump flush of profiler buffers.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace mltc {
namespace {

// PID-suffixed: ctest runs each test case as its own process, possibly
// in parallel, so shared fixed names would race on create/remove.
std::string
tempPath(const char *name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good());
}

// ---------------------------------------------------------------------------
// Folded-format primitives.

TEST(Folded, EscapingRoundTrips)
{
    EXPECT_EQ(foldedEscape("plain"), "plain");
    EXPECT_EQ(foldedEscape("a;b"), "a\\;b");
    EXPECT_EQ(foldedEscape("a\\b"), "a\\\\b");
    // Frame names may contain spaces ("leg:2 MB L2"); only the
    // separator and the escape character are escaped.
    EXPECT_EQ(foldedEscape("leg:2 MB L2"), "leg:2 MB L2");

    const std::vector<std::string> frames{"leg:2 MB L2", "semi;colon",
                                          "back\\slash"};
    EXPECT_EQ(foldedSplit(foldedKey(frames)), frames);
}

TEST(Folded, RenderOmitsZeroSortsAndTerminates)
{
    std::map<std::string, uint64_t> stacks;
    stacks["b;y"] = 2;
    stacks["a;x"] = 7;
    stacks["never.sampled"] = 0; // must not appear
    stacks[""] = 5;              // empty stack key: not a stack
    const std::string text = renderFolded(stacks);
    EXPECT_EQ(text, "a;x 7\nb;y 2\n");
    // Deterministic: same map renders byte-identically.
    EXPECT_EQ(renderFolded(stacks), text);
}

TEST(Folded, LoadAggregatesSelfAndTotal)
{
    const std::string path = tempPath("agg.folded");
    writeFile(path, "a 2\na;b 3\na;b;c 5\n");
    const FoldedProfile p = loadFolded(path);
    std::remove(path.c_str());

    EXPECT_EQ(p.total_samples, 10u);
    ASSERT_EQ(p.stages.size(), 3u);
    EXPECT_EQ(p.stages[0].name, "a");
    EXPECT_EQ(p.stages[0].self, 2u);
    EXPECT_EQ(p.stages[0].total, 10u);
    EXPECT_EQ(p.stages[1].name, "b");
    EXPECT_EQ(p.stages[1].self, 3u);
    EXPECT_EQ(p.stages[1].total, 8u);
    EXPECT_EQ(p.stages[2].name, "c");
    EXPECT_EQ(p.stages[2].self, 5u);
    EXPECT_EQ(p.stages[2].total, 5u);
}

TEST(Folded, LoadCountsRecursiveFrameOnce)
{
    const std::string path = tempPath("rec.folded");
    writeFile(path, "a;a;a 4\n");
    const FoldedProfile p = loadFolded(path);
    std::remove(path.c_str());
    ASSERT_EQ(p.stages.size(), 1u);
    EXPECT_EQ(p.stages[0].total, 4u); // not 12: unique frames per stack
    EXPECT_EQ(p.stages[0].self, 4u);
}

TEST(Folded, LoadSpacesInFrames)
{
    // The sample count is the token after the LAST space; everything
    // before it is the stack, spaces included.
    const std::string path = tempPath("sp.folded");
    writeFile(path, "leg:2 MB L2;frame 11\n");
    const FoldedProfile p = loadFolded(path);
    std::remove(path.c_str());
    ASSERT_EQ(p.stages.size(), 2u);
    EXPECT_EQ(p.stages[0].name, "frame");
    EXPECT_EQ(p.stages[1].name, "leg:2 MB L2");
    EXPECT_EQ(p.total_samples, 11u);
}

TEST(Folded, LoadRejectsDamage)
{
    const std::string path = tempPath("bad.folded");
    writeFile(path, "a;b not_a_count\n");
    try {
        loadFolded(path);
        FAIL() << "corrupt line must throw";
    } catch (const Exception &e) {
        EXPECT_EQ(e.error().code, ErrorCode::Corrupt);
    }
    std::remove(path.c_str());

    try {
        loadFolded(tempPath("missing.folded"));
        FAIL() << "missing file must throw";
    } catch (const Exception &e) {
        EXPECT_EQ(e.error().code, ErrorCode::Io);
    }
}

// ---------------------------------------------------------------------------
// Differential profiles.

FoldedProfile
profileOf(std::map<std::string, uint64_t> stacks)
{
    const std::string path = tempPath("diff.folded");
    writeFile(path, renderFolded(stacks));
    FoldedProfile p = loadFolded(path);
    std::remove(path.c_str());
    return p;
}

TEST(ProfileDiff, SelfAgreementIsZero)
{
    const FoldedProfile a = profileOf({{"x", 90}, {"x;y", 10}});
    const ProfileDiff d = diffFoldedProfiles(a, a);
    EXPECT_EQ(d.max_rel, 0.0);
    for (const ProfileDiffRow &row : d.rows)
        EXPECT_EQ(row.rel_delta, 0.0);
}

TEST(ProfileDiff, DurationInvariant)
{
    // B sampled 10x longer at identical shape: still zero delta,
    // because the comparison is on self-sample *shares*.
    const FoldedProfile a = profileOf({{"x", 90}, {"x;y", 10}});
    const FoldedProfile b = profileOf({{"x", 900}, {"x;y", 100}});
    EXPECT_EQ(diffFoldedProfiles(a, b).max_rel, 0.0);
}

TEST(ProfileDiff, DetectsShiftWorstFirst)
{
    const FoldedProfile a = profileOf({{"x", 90}, {"y", 10}});
    const FoldedProfile b = profileOf({{"x", 50}, {"y", 50}});
    const ProfileDiff d = diffFoldedProfiles(a, b);
    // y moved 10% -> 50%: rel (0.5-0.1)/0.5 = 0.8; x: (0.9-0.5)/0.9.
    ASSERT_EQ(d.rows.size(), 2u);
    EXPECT_EQ(d.rows[0].name, "y");
    EXPECT_NEAR(d.rows[0].rel_delta, 0.8, 1e-9);
    EXPECT_NEAR(d.rows[1].rel_delta, 4.0 / 9.0, 1e-9);
    EXPECT_NEAR(d.max_rel, 0.8, 1e-9);
}

TEST(ProfileDiff, OneSidedStageIsFullDelta)
{
    const FoldedProfile a = profileOf({{"x", 50}, {"gone", 50}});
    const FoldedProfile b = profileOf({{"x", 100}});
    const ProfileDiff d = diffFoldedProfiles(a, b);
    ASSERT_FALSE(d.rows.empty());
    EXPECT_EQ(d.rows[0].name, "gone");
    EXPECT_NEAR(d.rows[0].rel_delta, 1.0, 1e-9);
}

TEST(ProfileDiff, MinShareSuppressesNoise)
{
    // "rare" flips 1 sample <-> 2 samples: a 50% relative swing on a
    // negligible share. min_share gates it out of the verdict.
    const FoldedProfile a = profileOf({{"x", 999}, {"rare", 1}});
    const FoldedProfile b = profileOf({{"x", 998}, {"rare", 2}});
    EXPECT_GT(diffFoldedProfiles(a, b, 0.0).max_rel, 0.4);
    EXPECT_LT(diffFoldedProfiles(a, b, 0.005).max_rel, 0.01);
}

// ---------------------------------------------------------------------------
// The live profiler.

TEST(Profiler, RejectsBadRate)
{
    ProfilerConfig bad;
    bad.hz = 0;
    EXPECT_THROW(StageProfiler{bad}, Exception);
    bad.hz = 200000;
    EXPECT_THROW(StageProfiler{bad}, Exception);
}

TEST(Profiler, CapturesAnnotatedStacks)
{
    ProfilerConfig pc;
    pc.hz = 10000;
    pc.counters = false;
    pc.out_prefix = tempPath("cap");
    StageProfiler profiler(pc);
    hooks().install(&profiler);
    {
        // Hold the stack across real time so the sampler must see it;
        // the inner frame name exercises writer-side escaping.
        Stage outer("stage.outer", "test");
        Stage inner(Annotation{"weird;stage"});
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    hooks().uninstall(&profiler);
    profiler.stopSampler();
    EXPECT_GT(profiler.sampleCount(), 0u);
    EXPECT_EQ(profiler.droppedSamples(), 0u);
    profiler.writeOutputs();

    std::ifstream folded(pc.out_prefix + ".folded");
    ASSERT_TRUE(folded.good());
    std::string text((std::istreambuf_iterator<char>(folded)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("stage.outer;weird\\;stage "), std::string::npos);

    std::ifstream jf(pc.out_prefix + ".json");
    ASSERT_TRUE(jf.good());
    std::string jtext((std::istreambuf_iterator<char>(jf)),
                      std::istreambuf_iterator<char>());
    const JsonValue root = parseJson(jtext);
    ASSERT_NE(root.find("build"), nullptr);
    ASSERT_NE(root.find("profile"), nullptr);
    EXPECT_EQ(root.find("profile")->find("hz")->asNumber(), 10000.0);
    const JsonValue *stages = root.find("stages");
    ASSERT_NE(stages, nullptr);
    bool saw_outer = false, saw_weird = false;
    for (const JsonValue &s : stages->asArray()) {
        const std::string name = s.find("stage")->asString();
        saw_outer |= name == "stage.outer";
        saw_weird |= name == "weird;stage";
    }
    EXPECT_TRUE(saw_outer);
    EXPECT_TRUE(saw_weird);

    std::remove((pc.out_prefix + ".folded").c_str());
    std::remove((pc.out_prefix + ".json").c_str());
}

TEST(Profiler, ForcedCounterFallbackIsGraceful)
{
    // The mandatory degradation proof: when perf_event_open is denied
    // (forced here so the test passes on machines where it is allowed),
    // profiling continues, readCounters reports failure exactly once
    // per counter-bracketed Stage, and the registry gauge flips.
    MetricsRegistry registry(true);
    ProfilerConfig pc;
    pc.hz = 1000;
    pc.force_counters_unavailable = true;
    pc.registry = &registry;
    StageProfiler profiler(pc);
    hooks().install(&profiler);
    EXPECT_TRUE(profiler.countersUnavailable());
    EXPECT_EQ(registry.gaugeValue("profile.counters_unavailable"), 1.0);

    uint64_t vals[4];
    EXPECT_FALSE(profiler.readCounters(vals));
    {
        // A counter-bracketed scope must still sample fine.
        Stage leg(annotate("leg:fallback"), /*counters=*/true);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    hooks().uninstall(&profiler);
    profiler.stopSampler();

    const JsonValue root = parseJson(profiler.liveJson());
    const JsonValue *counters = root.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_FALSE(counters->find("available")->asBool());
    EXPECT_TRUE(counters->find("stages")->asArray().empty());
}

TEST(Profiler, InternIsStableAndOrdered)
{
    ProfilerConfig pc;
    pc.hz = 100;
    StageProfiler profiler(pc);
    const char *a = profiler.intern("leg:alpha");
    const char *b = profiler.intern("leg:beta");
    EXPECT_STREQ(a, "leg:alpha");
    EXPECT_EQ(profiler.intern("leg:alpha"), a); // same pointer
    EXPECT_NE(a, b);
    profiler.stopSampler();

    // JSON leg roll-up preserves first-intern order (registration
    // order under SweepExecutor and MultiStreamRunner), not
    // alphabetical order.
    const char *z = profiler.intern("leg:aaa_last_interned");
    (void)z;
    const JsonValue root = parseJson(profiler.liveJson());
    const JsonValue *legs = root.find("legs");
    ASSERT_NE(legs, nullptr);
    ASSERT_EQ(legs->asArray().size(), 3u);
    EXPECT_EQ(legs->asArray()[0].find("name")->asString(), "leg:alpha");
    EXPECT_EQ(legs->asArray()[2].find("name")->asString(),
              "leg:aaa_last_interned");
}

TEST(Profiler, GlobalInternWithoutProfilerIsNull)
{
    ASSERT_EQ(hooks().profiler(), nullptr);
    EXPECT_EQ(annotate("leg:none").name, nullptr);
    // And a null annotation makes the scope a no-op rather than a crash.
    Stage scope(Annotation{}, /*counters=*/true);
}

TEST(Profiler, FlightDumpFlushesProfile)
{
    // A flight-dump trigger (quarantine, watchdog, ...) must flush the
    // profile-so-far next to the bundle even mid-run.
    ProfilerConfig pc;
    pc.hz = 10000;
    pc.out_prefix = tempPath("flight_prof");
    StageProfiler profiler(pc);
    hooks().install(&profiler);
    {
        Stage stage("pre.dump", "test");
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        flightDump("test-trigger");
    }
    hooks().uninstall(&profiler);
    profiler.stopSampler();

    std::ifstream folded(pc.out_prefix + ".folded");
    EXPECT_TRUE(folded.good());
    std::ifstream json(pc.out_prefix + ".json");
    EXPECT_TRUE(json.good());
    std::remove((pc.out_prefix + ".folded").c_str());
    std::remove((pc.out_prefix + ".json").c_str());
}

TEST(Profiler, LiveJsonMatchesWrittenSchema)
{
    ProfilerConfig pc;
    pc.hz = 997;
    StageProfiler profiler(pc);
    const JsonValue root = parseJson(profiler.liveJson());
    ASSERT_NE(root.find("profile"), nullptr);
    EXPECT_EQ(root.find("profile")->find("hz")->asNumber(), 997.0);
    EXPECT_NE(root.find("build"), nullptr);
    EXPECT_NE(root.find("stages"), nullptr);
    EXPECT_NE(root.find("counters"), nullptr);
    profiler.stopSampler();
}

} // namespace
} // namespace mltc
