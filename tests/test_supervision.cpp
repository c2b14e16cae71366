/**
 * @file
 * Differential supervision suite. MultiConfigRunner::runSupervised and
 * MultiStreamRunner::run share one checkpoint/watchdog/manifest policy,
 * so every typed case runs against both runners through a small
 * adapter:
 *
 *  - cancellation at step k stops with next index k, and the resumed
 *    run finishes byte-identical to a straight run;
 *  - a per-step deadline stops after the overrunning step (next k+1);
 *  - an exhausted wall budget stops before the next step (next k);
 *  - checkpoint write failures degrade to skip-with-backoff: an exact
 *    failure count, an exact retry step and an unchanged final output;
 *  - the SIGKILL hook dies after the Nth periodic checkpoint and the
 *    resumed run reproduces the straight run;
 *  - the `<checkpoint>.manifest` CSV lists the run and every entity.
 *
 * Steps are forced deterministically: a deadline of a picosecond trips
 * on every step, so a run resumed from step k with it stops at k+1.
 * The MultiConfigRunner-only crash-loop revival ladder closes the file.
 */
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "core/cache_sim.hpp"
#include "sim/multi_config_runner.hpp"
#include "sim/multi_stream_runner.hpp"
#include "util/io.hpp"
#include "workload/village.hpp"

namespace mltc {

/** Test-only peer: reaches into a simulator to break an invariant. */
class AuditTestPeer
{
  public:
    static std::vector<uint64_t> &l1Tags(CacheSim &sim)
    {
        return sim.l1_.tags_;
    }
};

namespace {

constexpr double kPicosecondMs = 1e-9;

// PID-suffixed: ctest runs test cases as parallel processes, so fixed
// names would race on create/remove across cases.
std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

std::string
fileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
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

DriverConfig
tinyDriver(int frames)
{
    DriverConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.filter = FilterMode::Trilinear;
    cfg.frames = frames;
    return cfg;
}

/** A three-configuration sweep over six frames of a tiny village. */
class SweepAdapter
{
  public:
    static constexpr int kSteps = 6;
    static constexpr const char *kEntity = "sim";

    SweepAdapter()
    {
        runner_.addSim(CacheSimConfig::pull(16 << 10), "pull");
        CacheSimConfig l2 = CacheSimConfig::twoLevel(4 << 10, 1 << 20);
        l2.tlb_entries = 8;
        runner_.addSim(l2, "l2");
        runner_.addWorkingSets({16}, {4});
    }

    RunManifest run(const ResilienceConfig &rc)
    {
        return runner_.runSupervised(rc);
    }

    /** Every counter of every harvested row, as text. */
    std::string
    output() const
    {
        std::ostringstream out;
        for (const FrameRow &row : runner_.rows()) {
            out << row.frame << ' ' << row.raster.texel_accesses;
            for (const CacheFrameStats &s : row.sims)
                out << ' ' << s.accesses << ' ' << s.l1_misses << ' '
                    << s.l2_full_hits << ' ' << s.l2_partial_hits << ' '
                    << s.l2_full_misses << ' ' << s.host_bytes << ' '
                    << s.tlb_probes << ' ' << s.tlb_hits;
            out << ' ' << row.working_sets->loaded_bytes << '\n';
        }
        return out.str();
    }

  private:
    Workload wl_ = tinyVillage();
    MultiConfigRunner runner_{wl_, tinyDriver(kSteps)};
};

/** Two tenants (Village + the thrasher) on one L2 for six rounds. */
class StreamAdapter
{
  public:
    static constexpr int kSteps = 6;
    static constexpr const char *kEntity = "stream";

    RunManifest run(const ResilienceConfig &rc) { return runner_.run(rc); }

    /** Every stream's per-round CSV, concatenated. */
    std::string
    output() const
    {
        std::string out;
        const std::string path = tempPath("supervision_stream.csv");
        for (uint32_t i = 0; i < runner_.streamCount(); ++i) {
            runner_.writeStreamCsv(i, path);
            out += fileText(path);
        }
        std::remove(path.c_str());
        return out;
    }

  private:
    static MultiStreamConfig
    config()
    {
        MultiStreamConfig ms;
        ms.width = 64;
        ms.height = 48;
        ms.rounds = kSteps;
        ms.l1_bytes = 4ull << 10;
        ms.l2_bytes = 256ull << 10;
        ms.share = L2SharePolicy::Utility;
        ms.repartition_every = 2;
        StreamSpec village;
        village.workload = "village";
        StreamSpec thrasher;
        thrasher.workload = kThrasherWorkload;
        ms.streams = {village, thrasher};
        return ms;
    }

    MultiStreamRunner runner_{config()};
};

template <typename Adapter>
class Supervision : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearCancellation();
        snap_ = tempPath("supervision.snap");
        Adapter straight;
        ASSERT_EQ(straight.run({}).outcome, RunOutcome::Completed);
        straight_ = straight.output();
    }

    void
    TearDown() override
    {
        clearCancellation();
        clearProcessIoFaults();
        for (const char *suffix : {"", ".prev", ".manifest", ".tmp"})
            std::remove((snap_ + suffix).c_str());
    }

    ResilienceConfig
    checkpointed(bool resume) const
    {
        ResilienceConfig rc;
        rc.checkpoint_path = snap_;
        rc.resume = resume;
        return rc;
    }

    /** Leave a checkpoint at step @p k by deadline-stopping k runs. */
    void
    advanceTo(int k)
    {
        for (int i = 0; i < k; ++i) {
            ResilienceConfig rc = checkpointed(i > 0);
            rc.frame_deadline_ms = kPicosecondMs;
            Adapter a;
            const RunManifest m = a.run(rc);
            ASSERT_EQ(m.outcome, RunOutcome::DeadlineExceeded);
            ASSERT_EQ(m.next_frame, i + 1);
        }
    }

    /** Resume from the checkpoint, finish, and match the straight run. */
    void
    finishMatchesStraight()
    {
        Adapter a;
        const RunManifest m = a.run(checkpointed(true));
        EXPECT_EQ(m.outcome, RunOutcome::Completed);
        EXPECT_EQ(m.next_frame, Adapter::kSteps);
        EXPECT_EQ(m.frames_completed, Adapter::kSteps);
        EXPECT_EQ(a.output(), straight_);
    }

    std::string snap_;
    std::string straight_;
};

using Runners = testing::Types<SweepAdapter, StreamAdapter>;
TYPED_TEST_SUITE(Supervision, Runners);

TYPED_TEST(Supervision, CancellationStopsAtTheStepBoundary)
{
    // Cancelled before the first step: nothing runs, next index 0.
    requestCancellation();
    {
        TypeParam a;
        const RunManifest m = a.run(this->checkpointed(false));
        EXPECT_EQ(m.outcome, RunOutcome::Cancelled);
        EXPECT_EQ(m.next_frame, 0);
        EXPECT_EQ(m.checkpoint, this->snap_);
    }
    clearCancellation();

    // Cancelled at step k = 3 of a resumed run.
    this->advanceTo(3);
    requestCancellation();
    {
        TypeParam a;
        const RunManifest m = a.run(this->checkpointed(true));
        EXPECT_EQ(m.outcome, RunOutcome::Cancelled);
        EXPECT_EQ(m.next_frame, 3);
        EXPECT_EQ(m.frames_completed, 3);
    }
    clearCancellation();
    this->finishMatchesStraight();
}

TYPED_TEST(Supervision, DeadlineStopsAfterTheOverrunningStep)
{
    for (int k = 0; k < 3; ++k) {
        ResilienceConfig rc = this->checkpointed(k > 0);
        rc.frame_deadline_ms = kPicosecondMs;
        TypeParam a;
        const RunManifest m = a.run(rc);
        EXPECT_EQ(m.outcome, RunOutcome::DeadlineExceeded) << "k=" << k;
        EXPECT_EQ(m.next_frame, k + 1) << "k=" << k;
    }
    this->finishMatchesStraight();
}

TYPED_TEST(Supervision, WallBudgetStopsBeforeTheNextStep)
{
    this->advanceTo(2);
    ResilienceConfig rc = this->checkpointed(true);
    rc.wall_budget_ms = kPicosecondMs;
    {
        TypeParam a;
        const RunManifest m = a.run(rc);
        EXPECT_EQ(m.outcome, RunOutcome::BudgetExhausted);
        EXPECT_EQ(m.next_frame, 2);
    }
    this->finishMatchesStraight();
}

TYPED_TEST(Supervision, CheckpointWriteFailuresBackOffExactly)
{
    // Write ops with a checkpoint every step and no faults: one per
    // periodic commit, one final commit, one manifest.
    ResilienceConfig rc = this->checkpointed(false);
    rc.checkpoint_every = 1;
    uint64_t clean_writes = 0;
    {
        IoFaultInjector &inj = installProcessIoFaults({});
        TypeParam a;
        const RunManifest m = a.run(rc);
        EXPECT_EQ(m.checkpoint_write_failures, 0);
        clean_writes = inj.stats().writes;
        clearProcessIoFaults();
    }

    // EIO on the first twelve writes: the commits at steps 1 and 2
    // exhaust their six attempts each. The ladder then skips step 3
    // (backoff 2 x every 1) and retries at step 4, which lands.
    IoFaultConfig storm;
    for (uint64_t n = 1; n <= 12; ++n)
        storm.schedule.push_back({IoFaultKind::Eio, n});
    IoFaultInjector &inj = installProcessIoFaults(storm);
    TypeParam a;
    const RunManifest m = a.run(rc);
    const uint64_t writes = inj.stats().writes;
    clearProcessIoFaults();
    EXPECT_EQ(m.outcome, RunOutcome::Completed);
    EXPECT_EQ(m.checkpoint_write_failures, 2);
    // 12 failed attempts replace the clean commits at steps 1..3.
    EXPECT_EQ(writes, clean_writes + 12 - 3);
    EXPECT_EQ(a.output(), this->straight_);
}

TYPED_TEST(Supervision, DieAfterCheckpointResumesByteIdentical)
{
    ResilienceConfig rc = this->checkpointed(false);
    rc.checkpoint_every = 1;
    rc.die_after_checkpoints = 2;
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        TypeParam a;
        a.run(rc);
        _exit(0); // the hook failed to fire
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // The checkpoint the kill left behind resumes at step 2.
    requestCancellation();
    {
        TypeParam a;
        EXPECT_EQ(a.run(this->checkpointed(true)).next_frame, 2);
    }
    clearCancellation();
    this->finishMatchesStraight();
}

TYPED_TEST(Supervision, ManifestListsTheRunAndEveryEntity)
{
    TypeParam a;
    ASSERT_EQ(a.run(this->checkpointed(false)).outcome,
              RunOutcome::Completed);
    std::istringstream csv(fileText(this->snap_ + ".manifest"));
    std::string line;
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line, "record,label,status,frames_completed,next_frame,"
                    "error_code,error,checkpoint_failures");
    ASSERT_TRUE(std::getline(csv, line));
    const std::string steps = std::to_string(TypeParam::kSteps);
    EXPECT_EQ(line, "run,,completed," + steps + "," + steps + ",,,0");
    int entities = 0;
    while (std::getline(csv, line)) {
        EXPECT_EQ(line.rfind(std::string(TypeParam::kEntity) + ",", 0), 0u)
            << line;
        EXPECT_NE(line.find(",ok,"), std::string::npos) << line;
        ++entities;
    }
    EXPECT_EQ(entities, 2);
}

// ---------------------------------------------------------------------------
// Crash-loop containment (MultiConfigRunner only: a tenant stream's
// quarantine is permanent). The "flaky" simulator fails its frame audit
// while frame < heal; revival attempts come +1, +2 and +4 frames after
// each failure, and a fourth consecutive failure past --restart-limit=3
// makes the quarantine permanent.

struct LadderResult
{
    std::vector<int> alive; ///< frames the flaky sim consumed accesses
    RunManifest manifest;
};

LadderResult
runLadder(int heal, uint32_t restart_limit)
{
    clearCancellation();
    Workload wl = tinyVillage();
    MultiConfigRunner runner(wl, tinyDriver(12));
    runner.addSim(CacheSimConfig::pull(16 << 10), "steady");
    CacheSim &flaky = runner.addSim(CacheSimConfig::pull(16 << 10), "flaky");
    std::vector<uint64_t> &tags = AuditTestPeer::l1Tags(flaky);

    ResilienceConfig rc;
    rc.restart_limit = restart_limit;
    LadderResult out;
    bool broken = false;
    // The callback runs after each frame's harvest and before its audit,
    // so the state it leaves is what that audit and the next frame's
    // revival attempt both see.
    out.manifest = runner.runSupervised(rc, [&](const FrameRow &row) {
        if (row.sims[1].accesses > 0)
            out.alive.push_back(row.frame);
        const bool want = row.frame >= 1 && row.frame < heal;
        if (want && !broken)
            tags.push_back(0); // L1 geometry skew: the cheap audit trips
        if (!want && broken)
            tags.pop_back();
        broken = want;
    });
    return out;
}

std::vector<int>
framesFrom(std::vector<int> head, int first, int end)
{
    for (int f = first; f < end; ++f)
        head.push_back(f);
    return head;
}

TEST(SupervisionLadder, RevivesAfterTheFirstHealthyAttempt)
{
    // Fails at 1; the attempt at 2 still sees the damage; healed by the
    // attempt at 4 (+2).
    LadderResult r = runLadder(3, 3);
    EXPECT_EQ(r.alive, framesFrom({0, 1}, 4, 12));
    ASSERT_EQ(r.manifest.entries.size(), 2u);
    EXPECT_FALSE(r.manifest.entries[1].quarantined);
    EXPECT_EQ(r.manifest.entries[1].restart_failures, 0u); // clean frames
    EXPECT_EQ(r.manifest.outcome, RunOutcome::Completed);

    // Attempts at 2 and 4 fail; the attempt at 8 (+4) succeeds.
    r = runLadder(7, 3);
    EXPECT_EQ(r.alive, framesFrom({0, 1}, 8, 12));
    EXPECT_FALSE(r.manifest.entries[1].quarantined);
}

TEST(SupervisionLadder, QuarantineIsPermanentPastTheRestartLimit)
{
    // The attempt at 8 is the fourth consecutive failure: 4 > 3.
    LadderResult r = runLadder(99, 3);
    EXPECT_EQ(r.alive, (std::vector<int>{0, 1}));
    const ManifestEntry &e = r.manifest.entries[1];
    EXPECT_TRUE(e.quarantined);
    EXPECT_EQ(e.quarantined_at, 8);
    EXPECT_EQ(e.restart_failures, 4u);
    EXPECT_EQ(e.error.code, ErrorCode::AuditViolation);
    EXPECT_FALSE(r.manifest.entries[0].quarantined);

    // Without --restart-limit the first failure is final.
    r = runLadder(2, 0);
    EXPECT_EQ(r.alive, (std::vector<int>{0, 1}));
    EXPECT_EQ(r.manifest.entries[1].quarantined_at, 1);
    EXPECT_EQ(r.manifest.entries[1].restart_failures, 1u);
}

} // namespace
} // namespace mltc
