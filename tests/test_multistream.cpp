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
 *    CSVs are byte-identical to an uninterrupted run.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "core/audit.hpp"
#include "sim/animation_driver.hpp"
#include "sim/multi_stream_runner.hpp"
#include "workload/registry.hpp"

namespace mltc {
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
    const MultiStreamManifest manifest = runner.run({});
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
        const MultiStreamManifest manifest = runner.run({});
        EXPECT_EQ(manifest.quarantinedCount(), 1u) << tag;
        EXPECT_TRUE(manifest.streams[2].quarantined) << tag;
        EXPECT_EQ(manifest.streams[2].error.code, ErrorCode::Transient)
            << tag;
        EXPECT_EQ(manifest.streams[2].at_round,
                  static_cast<uint32_t>(fail_round))
            << tag;
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

} // namespace
} // namespace mltc
