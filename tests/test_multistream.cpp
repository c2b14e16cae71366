/**
 * @file
 * Multi-tenant serving tests: the isolation, containment and
 * resilience contracts of the shared-L2 multi-stream runner.
 *
 *  - K=1 under the Shared policy is the pre-multi-tenant simulator:
 *    every counter matches a directly-driven single-stream run;
 *  - Static partitioning is perfect isolation: a partitioned stream is
 *    counter-identical to a solo cache of its quota size, and a
 *    quarantined co-tenant never perturbs the survivors' CSV bytes;
 *  - Utility repartitioning converges on the synthetic thrasher: the
 *    victim's quota grows past its fair share and its L2 miss rate
 *    lands within 10% of solo, while the Shared policy inflates it;
 *  - the per-round state checkpoints survive a real SIGKILL: resumed
 *    CSVs are byte-identical to an uninterrupted run;
 *  - a CacheSim on a shared L2 queues its L1 misses until endFrame(),
 *    so the per-stream legs may run concurrently: the outputs do not
 *    depend on --jobs;
 *  - tenants naming one workload share a single build of it, and the
 *    serve4 mix gives the rows and checkpoint bytes pinned from when
 *    every tenant built its own;
 *  - a round is atomic: cancellation requested before it still renders
 *    every live tenant (it is seen only between rounds).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "core/audit.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/reuse_profiler.hpp"
#include "obs/trace_event.hpp"
#include "sim/animation_driver.hpp"
#include "sim/multi_stream_runner.hpp"
#include "sim/span_pipe.hpp"
#include "texture/procedural.hpp"
#include "workload/registry.hpp"

namespace mltc {

/** Test-only access to a single serving round. */
class MultiStreamRoundPeer
{
  public:
    /** Run round 0 with the pipes and pool run() would give it. */
    static void
    runFirstRound(MultiStreamRunner &runner)
    {
        ThreadPool *pool = runner.pool_.get();
        std::vector<std::unique_ptr<SpanPipe>> pipes;
        for (auto &st : runner.streams_)
            pipes.push_back(std::make_unique<SpanPipe>(
                *st->sim, pool, annotate("leg:" + st->name)));
        runner.runRound(0, AuditLevel::Off, pool, pipes);
    }
};

namespace {

// PID-suffixed: ctest runs test cases as parallel processes, so fixed
// names would race on create/remove across cases.
std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Small-but-real config: full workloads, tiny screen and caches. */
MultiStreamConfig
base(L2SharePolicy share, uint64_t l2_bytes = 256ull << 10)
{
    MultiStreamConfig ms;
    ms.width = 64;
    ms.height = 48;
    ms.rounds = 6;
    ms.l1_bytes = 4ull << 10;
    ms.l2_bytes = l2_bytes;
    ms.share = share;
    ms.repartition_every = 2;
    ms.jobs = 1;
    return ms;
}

StreamSpec
spec(const std::string &workload, FilterMode filter, uint32_t phase = 0)
{
    StreamSpec s;
    s.workload = workload;
    s.filter = filter;
    s.phase = phase;
    return s;
}

void
expectTotalsEqual(const CacheFrameStats &a, const CacheFrameStats &b,
                  const std::string &ctx)
{
    EXPECT_EQ(a.accesses, b.accesses) << ctx;
    EXPECT_EQ(a.l1_misses, b.l1_misses) << ctx;
    EXPECT_EQ(a.l2_full_hits, b.l2_full_hits) << ctx;
    EXPECT_EQ(a.l2_partial_hits, b.l2_partial_hits) << ctx;
    EXPECT_EQ(a.l2_full_misses, b.l2_full_misses) << ctx;
    EXPECT_EQ(a.host_bytes, b.host_bytes) << ctx;
    EXPECT_EQ(a.l2_read_bytes, b.l2_read_bytes) << ctx;
}

TEST(MultiStream, SingleSharedStreamMatchesDirectRun)
{
    MultiStreamConfig ms = base(L2SharePolicy::Shared);
    ms.streams.push_back(spec("village", FilterMode::Bilinear));
    MultiStreamRunner runner(ms);
    const RunManifest manifest = runner.run({});
    EXPECT_EQ(manifest.outcome, RunOutcome::Completed);
    EXPECT_EQ(manifest.quarantinedCount(), 0u);

    // The golden reference: one simulator, directly driven, owning an
    // L2 of the same geometry — the pre-multi-tenant architecture.
    Workload wl = buildWorkload("village");
    CacheSim sim(*wl.textures,
                 CacheSimConfig::twoLevel(ms.l1_bytes, ms.l2_bytes,
                                          ms.l2_tile, ms.l1_tile),
                 "ref");
    Rasterizer raster(ms.width, ms.height);
    raster.setFilter(FilterMode::Bilinear);
    raster.setSink(&sim);
    const float aspect =
        static_cast<float>(ms.width) / static_cast<float>(ms.height);
    for (uint32_t f = 0; f < ms.rounds; ++f) {
        Camera cam = wl.cameraAtFrame(static_cast<int>(f),
                                      wl.default_frames, aspect);
        raster.renderFrame(wl.scene, cam, *wl.textures);
        sim.endFrame();
    }

    expectTotalsEqual(runner.sim(0).totals(), sim.totals(), "k=1 golden");
    const L2Stats &a = runner.l2().stats();
    const L2Stats &b = sim.l2()->stats();
    EXPECT_EQ(a.lookups, b.lookups);
    EXPECT_EQ(a.full_hits, b.full_hits);
    EXPECT_EQ(a.partial_hits, b.partial_hits);
    EXPECT_EQ(a.full_misses, b.full_misses);
    EXPECT_EQ(a.evictions, b.evictions);
}

TEST(MultiStream, StaticPartitionIsSoloCacheOfQuotaSize)
{
    // Two tenants under Static: stream 0 owns exactly half the blocks.
    MultiStreamConfig ms = base(L2SharePolicy::Static, 512ull << 10);
    ms.streams.push_back(spec("village", FilterMode::Bilinear));
    ms.streams.push_back(spec("city", FilterMode::Trilinear, 3));
    MultiStreamRunner shared(ms);
    shared.run({});
    const uint64_t quota = shared.l2().quotas()[0];
    EXPECT_EQ(quota, shared.l2().config().blocks() / 2);

    // Solo run whose whole L2 is exactly that quota.
    MultiStreamConfig solo_cfg =
        base(L2SharePolicy::Shared,
             quota * shared.l2().config().blockBytes());
    solo_cfg.streams.push_back(spec("village", FilterMode::Bilinear));
    MultiStreamRunner solo(solo_cfg);
    solo.run({});

    expectTotalsEqual(shared.sim(0).totals(), solo.sim(0).totals(),
                      "static partition vs solo");

    // Partition isolation bound: nothing was ever stolen.
    EXPECT_EQ(shared.l2().streamStats(0).cross_evictions, 0u);
    EXPECT_EQ(shared.l2().streamStats(1).cross_evictions, 0u);
    CacheAuditor::checkL2(shared.l2(), AuditLevel::Full);
}

TEST(MultiStream, UtilityRepartitionContainsThrasher)
{
    MultiStreamConfig solo_cfg = base(L2SharePolicy::Shared);
    solo_cfg.rounds = 10;
    solo_cfg.streams.push_back(spec("village", FilterMode::Bilinear));
    MultiStreamRunner solo(solo_cfg);
    solo.run({});
    const double solo_miss = solo.l2().streamStats(0).missRate();

    auto paired = [&](L2SharePolicy share) {
        MultiStreamConfig ms = base(share);
        ms.rounds = 10;
        ms.streams.push_back(spec("village", FilterMode::Bilinear));
        ms.streams.push_back(spec(kThrasherWorkload, FilterMode::Bilinear));
        return ms;
    };

    MultiStreamRunner free_for_all(paired(L2SharePolicy::Shared));
    free_for_all.run({});
    const double shared_miss = free_for_all.l2().streamStats(0).missRate();

    MultiStreamRunner governed(paired(L2SharePolicy::Utility));
    ResilienceConfig res;
    res.audit = AuditLevel::Full;
    governed.run(res);
    const double utility_miss = governed.l2().streamStats(0).missRate();

    // Unprotected, the thrasher inflates the victim's miss rate;
    // utility repartitioning keeps it within 10% of the solo run.
    EXPECT_GT(shared_miss, solo_miss * 1.2);
    EXPECT_LE(utility_miss, solo_miss * 1.1);

    // The victim's curve earns it more than its fair share; the
    // thrasher's flat curve earns it (next to) nothing.
    EXPECT_GT(governed.l2().quotas()[0],
              governed.l2().config().blocks() / 2);
    CacheAuditor::checkL2(governed.l2(), AuditLevel::Full);
}

TEST(MultiStream, NoisyNeighborFlagsThrasherUnderSharedPolicy)
{
    MultiStreamConfig ms = base(L2SharePolicy::Shared);
    ms.rounds = 8;
    ms.streams.push_back(spec("village", FilterMode::Bilinear));
    ms.streams.push_back(spec(kThrasherWorkload, FilterMode::Bilinear));
    MultiStreamRunner runner(ms);
    runner.run({});

    // Under Shared nothing stops the thrasher from holding more than
    // its fair share while the victim's curve says it would pay for
    // those blocks — the detector must notice at least once.
    bool victim_flagged = false, thrasher_flagged = false;
    for (const StreamRoundRow &r : runner.rows(0))
        victim_flagged = victim_flagged || r.noisy;
    for (const StreamRoundRow &r : runner.rows(1))
        thrasher_flagged = thrasher_flagged || r.noisy;
    EXPECT_TRUE(thrasher_flagged);
    EXPECT_FALSE(victim_flagged);
    EXPECT_GT(runner.l2().streamStats(1).cross_evictions, 0u);
}

TEST(MultiStream, QuarantineLeavesSurvivorCsvBytesUntouched)
{
    // Static partitions: a tenant dying mid-run must leave the other
    // tenants' outputs byte-equal to a run where it never contributed.
    auto run = [&](int fail_round, const std::string &tag) {
        MultiStreamConfig ms = base(L2SharePolicy::Static, 512ull << 10);
        ms.streams.push_back(spec("village", FilterMode::Bilinear));
        ms.streams.push_back(spec("city", FilterMode::Trilinear, 3));
        ms.streams.push_back(spec(kThrasherWorkload, FilterMode::Bilinear));
        ms.streams[2].fail_at_round = fail_round;
        MultiStreamRunner runner(ms);
        const RunManifest manifest = runner.run({});
        EXPECT_EQ(manifest.quarantinedCount(), 1u) << tag;
        EXPECT_TRUE(manifest.entries[2].quarantined) << tag;
        EXPECT_EQ(manifest.entries[2].error.code, ErrorCode::Transient)
            << tag;
        EXPECT_EQ(manifest.entries[2].quarantined_at, fail_round) << tag;
        std::vector<std::string> bytes;
        for (uint32_t i = 0; i < 2; ++i) {
            const std::string path =
                tempPath(tag + ".stream" + std::to_string(i) + ".csv");
            runner.writeStreamCsv(i, path);
            bytes.push_back(fileBytes(path));
            std::remove(path.c_str());
        }
        return bytes;
    };

    const std::vector<std::string> with_faulty = run(3, "mid");
    const std::vector<std::string> without = run(0, "immediate");
    ASSERT_EQ(with_faulty.size(), without.size());
    for (size_t i = 0; i < with_faulty.size(); ++i)
        EXPECT_EQ(with_faulty[i], without[i]) << "survivor " << i;
}

/** Static partitions with a budget far below what streams pull per round. */
MultiStreamConfig
overBudget(std::vector<StreamSpec> streams)
{
    MultiStreamConfig ms = base(L2SharePolicy::Static, 512ull << 10);
    ms.rounds = 8;
    ms.stream_budget_bytes = 4 << 10;
    ms.streams = std::move(streams);
    return ms;
}

TEST(MultiStream, OverBudgetStreamShedsLoadViaLodBias)
{
    MultiStreamRunner runner(
        overBudget({spec("village", FilterMode::Bilinear),
                    spec("city", FilterMode::Trilinear, 3)}));
    runner.run({});

    // The bias must have engaged (hysteresis may step it back down
    // once the coarser replay drops traffic under half budget), and
    // coarser replay must shrink the per-round download volume.
    const std::vector<StreamRoundRow> &rows = runner.rows(0);
    ASSERT_GE(rows.size(), 4u);
    EXPECT_EQ(rows.front().lod_bias, 0u);
    uint32_t peak_bias = 0;
    for (const StreamRoundRow &r : rows)
        peak_bias = std::max(peak_bias, r.lod_bias);
    EXPECT_GT(peak_bias, 0u);
    EXPECT_GT(runner.governorOverBudgetRounds(0), 0u);
    EXPECT_LT(rows.back().host_bytes, rows.front().host_bytes);
}

/** Every stream's writeStreamCsv() bytes after running @p ms. */
std::vector<std::string>
streamCsvs(const MultiStreamConfig &ms, const std::string &tag)
{
    MultiStreamRunner runner(ms);
    runner.run({});
    std::vector<std::string> out;
    for (uint32_t i = 0; i < runner.streamCount(); ++i) {
        const std::string path =
            tempPath(tag + ".stream" + std::to_string(i) + ".csv");
        runner.writeStreamCsv(i, path);
        out.push_back(fileBytes(path));
        std::remove(path.c_str());
    }
    return out;
}

TEST(MultiStream, LodBiasedReplayIsPinned)
{
    // The governor's LOD bias remaps recorded refs during replay; pin
    // every per-round row byte so a change to that replay cannot shift
    // a counter unnoticed. The bilinear and trilinear tenants exercise
    // the quad remap; the point-sampled tenant and the thrasher (whose
    // bias climbs to 4) exercise the single-texel remap.
    const char *header =
        "round,accesses,l1_misses,l2_full_hits,l2_partial_hits,"
        "l2_full_misses,host_bytes,cross_evictions,quota_blocks,"
        "alloc_blocks,lod_bias,noisy,quarantined\n";
    const std::vector<std::string> quad = streamCsvs(
        overBudget({spec("village", FilterMode::Bilinear),
                    spec("city", FilterMode::Trilinear, 3)}),
        "pinned-quad");
    ASSERT_EQ(quad.size(), 2u);
    EXPECT_EQ(quad[0], std::string(header) +
                           "0,39436,323,57,192,74,17024,0,256,74,0,0,0\n"
                           "1,40028,103,90,9,4,832,0,256,78,1,0,0\n"
                           "2,40876,112,112,0,0,0,0,256,78,1,0,0\n"
                           "3,41708,358,191,148,19,10688,0,256,97,0,0,0\n"
                           "4,43252,175,154,19,2,1344,0,256,99,1,0,0\n"
                           "5,35028,81,81,0,0,0,0,256,99,1,0,0\n"
                           "6,33924,220,175,41,4,2880,0,256,103,0,0,0\n"
                           "7,34888,265,213,49,3,3328,0,256,106,0,0,0\n");
    EXPECT_EQ(quad[1], std::string(header) +
                           "0,24936,201,3,42,156,12672,0,256,156,0,0,0\n"
                           "1,25076,119,118,0,1,64,0,256,157,1,0,0\n"
                           "2,25376,119,119,0,0,0,0,256,157,1,0,0\n"
                           "3,25596,199,198,0,1,64,0,256,158,0,0,0\n"
                           "4,25704,204,200,2,2,256,0,256,160,0,0,0\n"
                           "5,25988,207,204,0,3,192,0,256,163,0,0,0\n"
                           "6,26168,209,208,0,1,64,0,256,164,0,0,0\n"
                           "7,26412,212,209,2,1,192,0,256,165,0,0,0\n");

    const std::vector<std::string> texel = streamCsvs(
        overBudget({spec("village", FilterMode::Point),
                    spec(kThrasherWorkload, FilterMode::Bilinear)}),
        "pinned-texel");
    ASSERT_EQ(texel.size(), 2u);
    EXPECT_EQ(texel[0], std::string(header) +
                            "0,9859,281,41,167,73,15360,0,256,73,0,0,0\n"
                            "1,10007,99,86,9,4,832,0,256,77,1,0,0\n"
                            "2,10219,104,99,5,0,320,0,256,77,1,0,0\n"
                            "3,10427,326,164,144,18,10368,0,256,95,0,0,0\n"
                            "4,10813,139,119,18,2,1280,0,256,97,1,0,0\n"
                            "5,8757,69,69,0,0,0,0,256,97,1,0,0\n"
                            "6,8481,188,146,39,3,2688,0,256,100,0,0,0\n"
                            "7,8722,230,175,51,4,3520,0,256,104,0,0,0\n");
    EXPECT_EQ(texel[1], std::string(header) +
                            "0,1024,1024,0,0,1024,65536,0,256,256,0,0,0\n"
                            "1,1024,1024,0,768,256,65536,0,256,256,1,0,0\n"
                            "2,1024,1024,0,960,64,65536,0,256,256,2,0,0\n"
                            "3,1024,256,0,240,16,16384,0,256,256,3,0,0\n"
                            "4,1024,64,0,60,4,4096,0,256,256,4,0,0\n"
                            "5,1024,0,0,0,0,0,0,256,256,4,0,0\n"
                            "6,1024,0,0,0,0,0,0,256,256,4,0,0\n"
                            "7,1024,256,256,0,0,0,0,256,256,3,0,0\n");
}

TEST(MultiStream, SigkillResumeIsBitIdentical)
{
    MultiStreamConfig ms = base(L2SharePolicy::Utility, 512ull << 10);
    ms.rounds = 6;
    ms.streams.push_back(spec("village", FilterMode::Bilinear));
    ms.streams.push_back(spec("city", FilterMode::Trilinear, 3));
    ms.streams.push_back(spec(kThrasherWorkload, FilterMode::Bilinear));

    // Uninterrupted reference.
    std::vector<std::string> reference;
    {
        MultiStreamRunner runner(ms);
        EXPECT_EQ(runner.run({}).outcome, RunOutcome::Completed);
        for (uint32_t i = 0; i < runner.streamCount(); ++i) {
            const std::string path =
                tempPath("ref.stream" + std::to_string(i) + ".csv");
            runner.writeStreamCsv(i, path);
            reference.push_back(fileBytes(path));
            std::remove(path.c_str());
        }
    }

    const std::string snap = tempPath("multistream.snap");
    ResilienceConfig res;
    res.checkpoint_path = snap;
    res.checkpoint_every = 2;

    // The child really dies: SIGKILL right after the first periodic
    // checkpoint commits, no destructors, no atexit.
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ResilienceConfig die = res;
        die.die_after_checkpoints = 1;
        MultiStreamRunner runner(ms);
        runner.run(die);
        _exit(97); // unreachable unless the kill hook failed
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Resume from the survivor checkpoint and finish the run.
    ResilienceConfig resume = res;
    resume.resume = true;
    MultiStreamRunner resumed(ms);
    EXPECT_EQ(resumed.run(resume).outcome, RunOutcome::Completed);
    for (uint32_t i = 0; i < resumed.streamCount(); ++i) {
        const std::string path =
            tempPath("res.stream" + std::to_string(i) + ".csv");
        resumed.writeStreamCsv(i, path);
        EXPECT_EQ(fileBytes(path), reference[i]) << "stream " << i;
        std::remove(path.c_str());
    }
    std::remove(snap.c_str());
}

TEST(MultiStream, ChecksSharePolicyParsing)
{
    EXPECT_EQ(parseL2SharePolicy("shared"), L2SharePolicy::Shared);
    EXPECT_EQ(parseL2SharePolicy("static"), L2SharePolicy::Static);
    EXPECT_EQ(parseL2SharePolicy("utility"), L2SharePolicy::Utility);
    EXPECT_THROW(parseL2SharePolicy("utliity"), std::invalid_argument);
    EXPECT_THROW(parseL2SharePolicy(""), std::invalid_argument);
    EXPECT_STREQ(l2SharePolicyName(L2SharePolicy::Utility), "utility");
}

TEST(MultiStream, RejectsInvalidConfiguration)
{
    MultiStreamConfig empty = base(L2SharePolicy::Shared);
    EXPECT_THROW(MultiStreamRunner{empty}, std::invalid_argument);

    MultiStreamConfig unknown = base(L2SharePolicy::Shared);
    unknown.streams.push_back(spec("vilage", FilterMode::Bilinear));
    EXPECT_THROW(MultiStreamRunner{unknown}, std::invalid_argument);

    MultiStreamConfig no_rounds = base(L2SharePolicy::Shared);
    no_rounds.rounds = 0;
    no_rounds.streams.push_back(spec("village", FilterMode::Bilinear));
    EXPECT_THROW(MultiStreamRunner{no_rounds}, std::invalid_argument);
}

TEST(MultiStream, RejectsRestartLimitNamingTheFlag)
{
    // A quarantined tenant is never revived: --restart-limit must fail
    // loudly rather than be silently ignored.
    MultiStreamConfig ms = base(L2SharePolicy::Shared);
    ms.streams.push_back(spec("village", FilterMode::Bilinear));
    MultiStreamRunner runner(ms);
    ResilienceConfig res;
    res.restart_limit = 3;
    try {
        runner.run(res);
        FAIL() << "--restart-limit accepted in stream mode";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::BadArgument);
        EXPECT_NE(std::string(e.what()).find("--restart-limit"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(runner.rows(0).empty()); // rejected before any round
}

TEST(BandwidthGovernor, HysteresisStepsUpFastAndDownSlow)
{
    BandwidthGovernor gov(1, {1000, 4});
    EXPECT_EQ(gov.bias(0), 0u);
    EXPECT_EQ(gov.observe(0, 2000), 1u); // over: step up immediately
    EXPECT_EQ(gov.observe(0, 2000), 2u);
    EXPECT_EQ(gov.observe(0, 400), 2u); // one calm round: hold
    EXPECT_EQ(gov.observe(0, 400), 1u); // second calm round: step down
    EXPECT_EQ(gov.observe(0, 700), 1u); // in the dead band: hold
    EXPECT_EQ(gov.observe(0, 400), 1u); // dead band reset the streak
    EXPECT_EQ(gov.observe(0, 400), 0u);
    EXPECT_EQ(gov.overBudgetRounds(0), 2u);
    EXPECT_EQ(gov.totalBytes(0), 2000u + 2000 + 400 + 400 + 700 + 400 + 400);

    // Unlimited budget never engages.
    BandwidthGovernor off(1, {0, 4});
    EXPECT_EQ(off.observe(0, 1ull << 40), 0u);
}

/**
 * Every row field, every sim total, every L2Stats field and the final
 * checkpoint bytes of two runs of the same configuration.
 */
void
expectRunsEqual(const MultiStreamRunner &a, const std::string &a_snap,
                const MultiStreamRunner &b, const std::string &b_snap,
                const std::string &what)
{
    ASSERT_EQ(a.streamCount(), b.streamCount());
    for (uint32_t i = 0; i < a.streamCount(); ++i) {
        const std::vector<StreamRoundRow> &x = a.rows(i);
        const std::vector<StreamRoundRow> &y = b.rows(i);
        ASSERT_EQ(x.size(), y.size()) << what;
        for (size_t r = 0; r < x.size(); ++r) {
            const std::string ctx = what + ": stream " + std::to_string(i) +
                                    " round " + std::to_string(r);
            EXPECT_EQ(x[r].round, y[r].round) << ctx;
            EXPECT_EQ(x[r].accesses, y[r].accesses) << ctx;
            EXPECT_EQ(x[r].l1_misses, y[r].l1_misses) << ctx;
            EXPECT_EQ(x[r].l2_full_hits, y[r].l2_full_hits) << ctx;
            EXPECT_EQ(x[r].l2_partial_hits, y[r].l2_partial_hits) << ctx;
            EXPECT_EQ(x[r].l2_full_misses, y[r].l2_full_misses) << ctx;
            EXPECT_EQ(x[r].host_bytes, y[r].host_bytes) << ctx;
            EXPECT_EQ(x[r].cross_evictions, y[r].cross_evictions) << ctx;
            EXPECT_EQ(x[r].quota_blocks, y[r].quota_blocks) << ctx;
            EXPECT_EQ(x[r].alloc_blocks, y[r].alloc_blocks) << ctx;
            EXPECT_EQ(x[r].lod_bias, y[r].lod_bias) << ctx;
            EXPECT_EQ(x[r].noisy, y[r].noisy) << ctx;
            EXPECT_EQ(x[r].quarantined, y[r].quarantined) << ctx;
        }
        expectTotalsEqual(a.sim(i).totals(), b.sim(i).totals(),
                          what + ": stream " + std::to_string(i));
        EXPECT_EQ(a.sim(i).totals().victim_steps_max,
                  b.sim(i).totals().victim_steps_max)
            << what;
    }
    const L2Stats &x = a.l2().stats();
    const L2Stats &y = b.l2().stats();
    EXPECT_EQ(x.lookups, y.lookups) << what;
    EXPECT_EQ(x.full_hits, y.full_hits) << what;
    EXPECT_EQ(x.partial_hits, y.partial_hits) << what;
    EXPECT_EQ(x.full_misses, y.full_misses) << what;
    EXPECT_EQ(x.evictions, y.evictions) << what;
    EXPECT_EQ(x.host_bytes, y.host_bytes) << what;
    EXPECT_EQ(x.l2_read_bytes, y.l2_read_bytes) << what;
    EXPECT_EQ(x.victim_steps, y.victim_steps) << what;
    EXPECT_EQ(x.victim_steps_max, y.victim_steps_max) << what;
    EXPECT_EQ(x.prefetch_sectors, y.prefetch_sectors) << what;
    EXPECT_EQ(x.prefetch_useful, y.prefetch_useful) << what;
    EXPECT_TRUE(fileBytes(a_snap) == fileBytes(b_snap))
        << what << ": checkpoint bytes differ";
}

/** Run @p ms at @p jobs with a checkpoint every 2 rounds. */
std::unique_ptr<MultiStreamRunner>
runAtJobs(MultiStreamConfig ms, unsigned jobs, const std::string &snap)
{
    ms.jobs = jobs;
    ResilienceConfig res;
    res.checkpoint_path = snap;
    res.checkpoint_every = 2;
    auto runner = std::make_unique<MultiStreamRunner>(ms);
    EXPECT_EQ(runner->run(res).outcome, RunOutcome::Completed);
    return runner;
}

void
removeSnapshot(const std::string &snap)
{
    for (const char *suffix : {"", ".prev", ".manifest"})
        std::remove((snap + suffix).c_str());
}

TEST(MultiStream, UtilityLegsAreJobsInvariant)
{
    // The legs run each tenant's private caches on worker threads and
    // only the drain touches the shared L2. The thrasher drives the
    // owner-constrained victim search; the budget engages the LOD bias.
    MultiStreamConfig ms = base(L2SharePolicy::Utility);
    ms.rounds = 8;
    ms.stream_budget_bytes = 8 << 10;
    ms.streams = {spec("village", FilterMode::Bilinear),
                  spec(kThrasherWorkload, FilterMode::Bilinear)};
    const std::string snap1 = tempPath("legs_j1.snap");
    const std::string snap4 = tempPath("legs_j4.snap");
    const auto serial = runAtJobs(ms, 1, snap1);
    const auto parallel = runAtJobs(ms, 4, snap4);
    // A quarantined stream stops after one row: all 8 rounds per stream
    // prove the thrasher survived.
    for (uint32_t i = 0; i < 2; ++i)
        ASSERT_EQ(serial->rows(i).size(), 8u) << "stream " << i;
    expectRunsEqual(*serial, snap1, *parallel, snap4, "jobs 4");
    // Owner-constrained evictions did happen.
    EXPECT_GT(serial->l2().stats().evictions, 0u);
    EXPECT_GT(serial->l2().streamStats(1).evictions_suffered, 0u);
    removeSnapshot(snap1);
    removeSnapshot(snap4);
}

TEST(MultiStream, PerfbenchMixIsJobsInvariant)
{
    // The serve4 tenant mix at reduced resolution. Each frame spans
    // several pipe blocks, and jobs 2 leaves fewer workers than legs,
    // so producers also drain their own pipes.
    MultiStreamConfig ms = base(L2SharePolicy::Utility);
    ms.width = 160;
    ms.height = 120;
    ms.l1_bytes = 16ull << 10;
    ms.rounds = 6;
    ms.streams = {spec("village", FilterMode::Trilinear, 120),
                  spec("village", FilterMode::Bilinear, 325),
                  spec("city", FilterMode::Bilinear, 120),
                  spec(kThrasherWorkload, FilterMode::Bilinear)};
    const std::string snap1 = tempPath("mix_j1.snap");
    const auto serial = runAtJobs(ms, 1, snap1);
    for (uint32_t i = 0; i < ms.streams.size(); ++i)
        ASSERT_EQ(serial->rows(i).size(), ms.rounds) << "stream " << i;
    for (const auto &row : serial->rows(0))
        EXPECT_GT(row.accesses, 0u);
    for (unsigned jobs : {2u, 4u, 8u}) {
        const std::string snap =
            tempPath("mix_j" + std::to_string(jobs) + ".snap");
        const auto parallel = runAtJobs(ms, jobs, snap);
        expectRunsEqual(*serial, snap1, *parallel, snap,
                        "jobs " + std::to_string(jobs));
        removeSnapshot(snap);
    }
    removeSnapshot(snap1);
}

TEST(MultiStream, CancelledBeforeARoundStillRendersEveryTenant)
{
    // Cancellation is seen only at superviseRun()'s step boundary, so a
    // round that has begun renders every live tenant. Were a tenant
    // skipped, its row would read 0 accesses, and a run interrupted and
    // resumed would write different CSVs from an uninterrupted one.
    MultiStreamConfig ms = base(L2SharePolicy::Utility);
    ms.rounds = 1;
    ms.streams = {spec("village", FilterMode::Bilinear),
                  spec("city", FilterMode::Trilinear, 7),
                  spec(kThrasherWorkload, FilterMode::Bilinear)};
    for (unsigned jobs : {1u, 3u}) {
        ms.jobs = jobs;
        MultiStreamRunner whole(ms);
        ASSERT_EQ(whole.run(ResilienceConfig{}).outcome,
                  RunOutcome::Completed);

        MultiStreamRunner cancelled(ms);
        clearCancellation();
        requestCancellation();
        MultiStreamRoundPeer::runFirstRound(cancelled);
        clearCancellation();

        for (uint32_t i = 0; i < ms.streams.size(); ++i) {
            const std::string ctx =
                "jobs " + std::to_string(jobs) + ", stream " +
                std::to_string(i);
            ASSERT_EQ(whole.rows(i).size(), 1u) << ctx;
            ASSERT_EQ(cancelled.rows(i).size(), 1u) << ctx;
            const StreamRoundRow &x = whole.rows(i)[0];
            const StreamRoundRow &y = cancelled.rows(i)[0];
            EXPECT_GT(x.accesses, 0u) << ctx;
            EXPECT_EQ(x.accesses, y.accesses) << ctx;
            EXPECT_EQ(x.l1_misses, y.l1_misses) << ctx;
            EXPECT_EQ(x.l2_full_hits, y.l2_full_hits) << ctx;
            EXPECT_EQ(x.l2_partial_hits, y.l2_partial_hits) << ctx;
            EXPECT_EQ(x.l2_full_misses, y.l2_full_misses) << ctx;
            EXPECT_EQ(x.host_bytes, y.host_bytes) << ctx;
            EXPECT_EQ(x.cross_evictions, y.cross_evictions) << ctx;
            EXPECT_EQ(x.quota_blocks, y.quota_blocks) << ctx;
            EXPECT_EQ(x.alloc_blocks, y.alloc_blocks) << ctx;
            EXPECT_EQ(x.lod_bias, y.lod_bias) << ctx;
            EXPECT_EQ(x.noisy, y.noisy) << ctx;
            EXPECT_EQ(x.quarantined, y.quarantined) << ctx;
        }
    }
}

/** FNV-1a over every stream's rows, then over the checkpoint bytes. */
uint64_t
runHash(const MultiStreamRunner &runner, const std::string &snap)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (uint32_t i = 0; i < runner.streamCount(); ++i)
        for (const StreamRoundRow &r : runner.rows(i))
            for (uint64_t v :
                 {uint64_t{r.round}, r.accesses, r.l1_misses,
                  r.l2_full_hits, r.l2_partial_hits, r.l2_full_misses,
                  r.host_bytes, r.cross_evictions, r.quota_blocks,
                  r.alloc_blocks, uint64_t{r.lod_bias}, uint64_t{r.noisy},
                  uint64_t{r.quarantined}})
                mix(v);
    for (char c : fileBytes(snap))
        mix(static_cast<unsigned char>(c));
    return h;
}

TEST(MultiStream, TenantsNamingOneWorkloadShareItsTextures)
{
    for (unsigned jobs : {1u, 3u}) {
        MultiStreamConfig ms = base(L2SharePolicy::Utility);
        ms.jobs = jobs;
        ms.streams = {spec("village", FilterMode::Trilinear),
                      spec("city", FilterMode::Bilinear),
                      spec("village", FilterMode::Bilinear, 205),
                      spec(kThrasherWorkload, FilterMode::Bilinear)};
        const MultiStreamRunner runner(ms);
        const std::string ctx = "jobs " + std::to_string(jobs);
        EXPECT_EQ(&runner.textures(0), &runner.textures(2)) << ctx;
        EXPECT_NE(&runner.textures(0), &runner.textures(1)) << ctx;
        EXPECT_NE(&runner.textures(0), &runner.textures(3)) << ctx;
        EXPECT_EQ(runner.textures(0).textureCount(), 18u) << ctx;
        EXPECT_EQ(runner.textures(3).textureCount(), 1u) << ctx;
    }
}

TEST(MultiStream, Serve4RunMatchesPinnedHash)
{
    // Perfbench's serve4 tenant set and caches at a reduced screen:
    // two Village tenants, the City and the thrasher on a 4 MB L2.
    // Pinned from the runner that built every tenant's workload itself.
    MultiStreamConfig ms = base(L2SharePolicy::Utility, 4ull << 20);
    ms.width = 256;
    ms.height = 192;
    ms.l1_bytes = 16ull << 10;
    ms.rounds = 4;
    ms.streams = {spec("village", FilterMode::Trilinear),
                  spec("village", FilterMode::Bilinear, 205),
                  spec("city", FilterMode::Bilinear),
                  spec(kThrasherWorkload, FilterMode::Bilinear)};
    constexpr uint64_t kPinned = 0xc63c24414a96e369ull;
    for (unsigned jobs : {1u, 4u}) {
        const std::string snap =
            tempPath("serve4_j" + std::to_string(jobs) + ".snap");
        const auto runner = runAtJobs(ms, jobs, snap);
        for (uint32_t i = 0; i < runner->streamCount(); ++i)
            ASSERT_EQ(runner->rows(i).size(), ms.rounds) << "stream " << i;
        const uint64_t h = runHash(*runner, snap);
        EXPECT_EQ(h, kPinned) << "jobs " << jobs << ": 0x" << std::hex << h;
        removeSnapshot(snap);
    }
}

TEST(MultiStream, RoundPhaseTimesGoToTheFlightRecorder)
{
    MultiStreamConfig ms = base(L2SharePolicy::Utility);
    ms.rounds = 3;
    ms.jobs = 2;
    ms.streams = {spec("village", FilterMode::Bilinear),
                  spec(kThrasherWorkload, FilterMode::Bilinear)};
    MultiStreamRunner runner(ms);
    FlightRecorder recorder(FlightRecorder::Config{});
    hooks().install(&recorder);
    runner.run({});
    hooks().uninstall(&recorder);
    std::map<std::string, int> phases;
    for (const FlightEvent &e : recorder.snapshot()) {
        const std::string name = e.name;
        if (name != "serve.legs_ms" && name != "serve.drain_ms" &&
            name != "serve.repartition_ms")
            continue;
        EXPECT_EQ(e.kind, FlightEvent::Metric) << name;
        EXPECT_GE(e.value, 0.0) << name;
        ++phases[name];
    }
    EXPECT_EQ(phases["serve.legs_ms"], 3);
    EXPECT_EQ(phases["serve.drain_ms"], 3);
    // repartition_every = 2: only round 1 of rounds 0..2 repartitions.
    EXPECT_EQ(phases["serve.repartition_ms"], 1);
}

TEST(MultiStream, TracedRunReportsHotStageTimes)
{
    // The hot stages run on the tenants' legs and pipe drains: their
    // per-thread sums must reach the stage table of a stream run.
    MultiStreamConfig ms = base(L2SharePolicy::Utility);
    ms.rounds = 3;
    ms.jobs = 2;
    ms.streams = {spec("village", FilterMode::Bilinear),
                  spec(kThrasherWorkload, FilterMode::Bilinear)};
    MultiStreamRunner runner(ms);
    const std::string path =
        testing::TempDir() + "stream_stages." + std::to_string(getpid());
    ChromeTraceWriter tracer(path);
    hooks().install(&tracer);
    runner.run({});
    hooks().uninstall(&tracer);
    tracer.close();
    std::map<std::string, StageStat> rows;
    for (const StageStat &s : tracer.stageStats())
        rows[s.name] = s;
    for (const char *name : {"cachesim.access", "sampler.sample"}) {
        ASSERT_TRUE(rows.count(name)) << name;
        EXPECT_GT(rows[name].count, 0u) << name;
        EXPECT_GT(rows[name].total_us, 0u) << name;
        EXPECT_EQ(rows[name].self_us, rows[name].total_us) << name;
    }
    std::remove(path.c_str());
}

/** One checker texture and a Utility L2 shared by a single tenant. */
struct SharedL2Fixture
{
    TextureManager textures;
    TextureId tid = textures.load(
        "checker", MipPyramid(makeChecker(256, 8, 0xff0000ffu, 0xffffffffu)));
    L2TextureCache l2{std::vector<TextureManager *>{&textures},
                      CacheSimConfig::twoLevel(4 << 10, 64 << 10).l2,
                      L2SharePolicy::Utility};
};

TEST(SharedL2Sim, AttachRejectsInlineL2Consumers)
{
    SharedL2Fixture fx;

    CacheSimConfig faulty = CacheSimConfig::pull(4 << 10);
    faulty.host.fault_injection = true;
    CacheSim with_faults(fx.textures, faulty);
    EXPECT_THROW(with_faults.attachSharedL2(&fx.l2, 0), std::logic_error);

    ReuseProfilerConfig pc;
    pc.enabled = true;
    ReuseProfiler profiler(pc);
    CacheSim profiled(fx.textures, CacheSimConfig::pull(4 << 10));
    profiled.setReuseProfiler(&profiler);
    EXPECT_THROW(profiled.attachSharedL2(&fx.l2, 0), std::logic_error);

    // Attaching the profiler afterwards is refused the same way.
    CacheSim attached(fx.textures, CacheSimConfig::pull(4 << 10));
    attached.attachSharedL2(&fx.l2, 0);
    EXPECT_THROW(attached.setReuseProfiler(&profiler), std::logic_error);
    EXPECT_EQ(attached.reuseProfiler(), nullptr);
}

TEST(SharedL2Sim, MissesWaitForEndFrameAndBlockSave)
{
    SharedL2Fixture fx;
    CacheSim sim(fx.textures, CacheSimConfig::pull(4 << 10));
    sim.attachSharedL2(&fx.l2, 0);
    sim.bindTexture(fx.tid);
    sim.access(0, 0, 0);
    sim.access(64, 64, 0);

    // The L1 ran inline; the shared L2 has not been consulted yet.
    EXPECT_EQ(sim.l1().stats().misses, 2u);
    EXPECT_EQ(fx.l2.stats().lookups, 0u);
    SnapshotWriter early(tempPath("shared_l2_sim.snap"));
    EXPECT_THROW(sim.save(early), std::logic_error);

    const CacheFrameStats fr = sim.endFrame();
    EXPECT_EQ(fr.l1_misses, 2u);
    EXPECT_EQ(fr.l2_full_misses, 2u);
    EXPECT_EQ(fx.l2.stats().lookups, 2u);
    SnapshotWriter later(tempPath("shared_l2_sim.snap"));
    EXPECT_NO_THROW(sim.save(later));
}

TEST(SharedL2Sim, MissQueueLongerThanAChunkMatchesAnOwnedL2)
{
    // Random texels of a 256x256 texture miss a 4 KB L1 almost every
    // time, so one frame queues ~3 chunks of misses (4096 each); the
    // 64 KB L2 holds a quarter of the texture, so its outcomes depend
    // on the drain replaying the misses in issue order.
    SharedL2Fixture fx;
    const CacheSimConfig two = CacheSimConfig::twoLevel(4 << 10, 64 << 10);
    L2TextureCache l2(std::vector<TextureManager *>{&fx.textures}, two.l2,
                      L2SharePolicy::Shared);
    CacheSim shared(fx.textures, CacheSimConfig::pull(4 << 10));
    shared.attachSharedL2(&l2, 0);
    CacheSim owned(fx.textures, two);
    shared.bindTexture(fx.tid);
    owned.bindTexture(fx.tid);
    std::mt19937 rng(7);
    for (int i = 0; i < 3 * 4096; ++i) {
        const uint32_t x = rng() % 256, y = rng() % 256;
        shared.access(x, y, 0);
        owned.access(x, y, 0);
    }
    const CacheFrameStats a = shared.endFrame();
    owned.endFrame();
    EXPECT_GT(a.l1_misses, 2u * 4096u);
    expectTotalsEqual(shared.totals(), owned.totals(), "queued vs owned");
    EXPECT_EQ(l2.stats().evictions, owned.l2()->stats().evictions);
}

} // namespace
} // namespace mltc
