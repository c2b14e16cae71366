/**
 * @file
 * The tentpole resilience property: running N frames straight equals
 * running k frames, checkpointing, reloading into a *fresh* runner and
 * finishing — for every counter of every row, across architectures
 * (pull / 2-4-8 MB L2), filters (bilinear / trilinear), snapshot frames
 * k, and with the fallible host path (fault-injection RNG streams must
 * round-trip). scripts/kill_resume.sh proves the same property across a
 * real SIGKILL'ed process; these tests prove it in-process for the
 * whole parameter grid.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "sim/multi_config_runner.hpp"
#include "workload/village.hpp"

namespace mltc {
namespace {

Workload
tiny()
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
driver(FilterMode filter, int frames)
{
    DriverConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.filter = filter;
    cfg.frames = frames;
    return cfg;
}

/** The sweep every test drives: pull + three L2 sizes, TLB on. */
void
addSims(MultiConfigRunner &runner, const HostPathConfig &host)
{
    CacheSimConfig pull = CacheSimConfig::pull(128 << 10);
    pull.host = host;
    runner.addSim(pull, "pull");
    for (uint64_t mb : {2ull, 4ull, 8ull}) {
        CacheSimConfig c = CacheSimConfig::twoLevel(128 << 10, mb << 20);
        c.tlb_entries = 8;
        c.host = host;
        runner.addSim(c, "l2-" + std::to_string(mb) + "mb");
    }
}

void
expectRowsEqual(const std::vector<FrameRow> &a,
                const std::vector<FrameRow> &b, const std::string &ctx)
{
    ASSERT_EQ(a.size(), b.size()) << ctx;
    for (size_t i = 0; i < a.size(); ++i) {
        const FrameRow &x = a[i];
        const FrameRow &y = b[i];
        const std::string at = ctx + " row " + std::to_string(i);
        EXPECT_EQ(x.frame, y.frame) << at;
        EXPECT_EQ(x.raster.objects_visible, y.raster.objects_visible) << at;
        EXPECT_EQ(x.raster.triangles_in, y.raster.triangles_in) << at;
        EXPECT_EQ(x.raster.triangles_drawn, y.raster.triangles_drawn) << at;
        EXPECT_EQ(x.raster.pixels_textured, y.raster.pixels_textured) << at;
        EXPECT_EQ(x.raster.texel_accesses, y.raster.texel_accesses) << at;
        ASSERT_EQ(x.sims.size(), y.sims.size()) << at;
        for (size_t s = 0; s < x.sims.size(); ++s) {
            const CacheFrameStats &p = x.sims[s];
            const CacheFrameStats &q = y.sims[s];
            const std::string sim = at + " sim " + std::to_string(s);
            EXPECT_EQ(p.accesses, q.accesses) << sim;
            EXPECT_EQ(p.l1_misses, q.l1_misses) << sim;
            EXPECT_EQ(p.l2_full_hits, q.l2_full_hits) << sim;
            EXPECT_EQ(p.l2_partial_hits, q.l2_partial_hits) << sim;
            EXPECT_EQ(p.l2_full_misses, q.l2_full_misses) << sim;
            EXPECT_EQ(p.host_bytes, q.host_bytes) << sim;
            EXPECT_EQ(p.l2_read_bytes, q.l2_read_bytes) << sim;
            EXPECT_EQ(p.tlb_probes, q.tlb_probes) << sim;
            EXPECT_EQ(p.tlb_hits, q.tlb_hits) << sim;
            EXPECT_EQ(p.victim_steps_max, q.victim_steps_max) << sim;
            EXPECT_EQ(p.host_retries, q.host_retries) << sim;
            EXPECT_EQ(p.host_failures, q.host_failures) << sim;
            EXPECT_EQ(p.degraded_accesses, q.degraded_accesses) << sim;
            EXPECT_EQ(p.degraded_mip_bias, q.degraded_mip_bias) << sim;
        }
        ASSERT_EQ(x.working_sets.has_value(), y.working_sets.has_value())
            << at;
        if (x.working_sets) {
            const FrameWorkingSet &p = *x.working_sets;
            const FrameWorkingSet &q = *y.working_sets;
            EXPECT_EQ(p.pixel_refs, q.pixel_refs) << at;
            EXPECT_EQ(p.textures_touched, q.textures_touched) << at;
            EXPECT_EQ(p.push_bytes, q.push_bytes) << at;
            EXPECT_EQ(p.loaded_bytes, q.loaded_bytes) << at;
            ASSERT_EQ(p.l2.size(), q.l2.size()) << at;
            for (size_t j = 0; j < p.l2.size(); ++j) {
                EXPECT_EQ(p.l2[j].blocks_touched, q.l2[j].blocks_touched)
                    << at;
                EXPECT_EQ(p.l2[j].blocks_new, q.l2[j].blocks_new) << at;
            }
            ASSERT_EQ(p.l1.size(), q.l1.size()) << at;
            for (size_t j = 0; j < p.l1.size(); ++j) {
                EXPECT_EQ(p.l1[j].tiles_touched, q.l1[j].tiles_touched)
                    << at;
                EXPECT_EQ(p.l1[j].tiles_new, q.l1[j].tiles_new) << at;
            }
        }
        EXPECT_EQ(x.push_bytes, y.push_bytes) << at;
    }
}

// PID-suffixed: ctest runs test cases as parallel processes, so fixed
// names would race on create/remove across cases.
std::string
tempSnap(const std::string &name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid()) +
           ".snap";
}

/**
 * The property itself: straight N-frame run vs. cancel-at-k +
 * checkpoint + fresh-runner resume. Returns through gtest expectations.
 */
void
checkResumeEquivalence(FilterMode filter, int frames, int k,
                       const HostPathConfig &host, const std::string &ctx)
{
    const std::string snap = tempSnap("resume_eq_" + ctx);

    // Reference: the plain (unsupervised) path — also proves
    // runSupervised with defaults renders exactly what run() renders.
    Workload ref_wl = tiny();
    MultiConfigRunner ref(ref_wl, driver(filter, frames));
    addSims(ref, host);
    ref.addWorkingSets({16}, {4});
    ref.addPushModel();
    ref.run();

    // Leg 1: supervised, cancelled after frame k-1 via the same
    // cooperative path a SIGINT takes; final checkpoint lands at k.
    clearCancellation();
    Workload wl1 = tiny();
    MultiConfigRunner part(wl1, driver(filter, frames));
    addSims(part, host);
    part.addWorkingSets({16}, {4});
    part.addPushModel();
    ResilienceConfig rc;
    rc.checkpoint_path = snap;
    rc.audit = AuditLevel::Full;
    RunManifest m1 = part.runSupervised(rc, [&](const FrameRow &row) {
        if (row.frame == k - 1)
            requestCancellation();
    });
    clearCancellation();
    EXPECT_EQ(m1.outcome, RunOutcome::Cancelled) << ctx;
    EXPECT_EQ(m1.next_frame, k) << ctx;
    EXPECT_EQ(m1.frames_completed, k) << ctx;

    // Leg 2: a *fresh* runner (fresh sims, collectors, RNGs) resumes
    // from the checkpoint and finishes.
    Workload wl2 = tiny();
    MultiConfigRunner rest(wl2, driver(filter, frames));
    addSims(rest, host);
    rest.addWorkingSets({16}, {4});
    rest.addPushModel();
    ResilienceConfig rc2 = rc;
    rc2.resume = true;
    RunManifest m2 = rest.runSupervised(rc2);
    EXPECT_EQ(m2.outcome, RunOutcome::Completed) << ctx;
    EXPECT_EQ(m2.frames_completed, frames) << ctx;
    EXPECT_EQ(m2.quarantinedCount(), 0u) << ctx;

    expectRowsEqual(ref.rows(), rest.rows(), ctx);

    std::remove(snap.c_str());
    std::remove((snap + ".manifest").c_str());
}

TEST(ResumeEquivalence, AcrossFilters)
{
    checkResumeEquivalence(FilterMode::Bilinear, 5, 2, {}, "bilinear");
    checkResumeEquivalence(FilterMode::Trilinear, 5, 2, {}, "trilinear");
}

TEST(ResumeEquivalence, EverySnapshotFrame)
{
    for (int k = 1; k < 5; ++k)
        checkResumeEquivalence(FilterMode::Trilinear, 5, k, {},
                               "k" + std::to_string(k));
}

TEST(ResumeEquivalence, FaultInjectionRngRoundTrips)
{
    for (uint64_t seed : {7ull, 1234ull}) {
        HostPathConfig host;
        host.fault_injection = true;
        host.faults.seed = seed;
        host.faults.drop_rate = 0.15;
        host.faults.corrupt_rate = 0.08;
        host.faults.spike_rate = 0.05;
        host.faults.burst_period = 200;
        host.faults.burst_length = 20;
        checkResumeEquivalence(FilterMode::Trilinear, 4, 2, host,
                               "faults-seed" + std::to_string(seed));
    }
}

TEST(ResumeEquivalence, PeriodicCheckpointsDoNotPerturbTheRun)
{
    // Checkpointing every frame must be purely observational.
    const std::string snap = tempSnap("resume_eq_periodic");
    Workload ref_wl = tiny();
    MultiConfigRunner ref(ref_wl, driver(FilterMode::Trilinear, 4));
    addSims(ref, {});
    ref.run();

    clearCancellation();
    Workload wl = tiny();
    MultiConfigRunner sup(wl, driver(FilterMode::Trilinear, 4));
    addSims(sup, {});
    ResilienceConfig rc;
    rc.checkpoint_path = snap;
    rc.checkpoint_every = 1;
    RunManifest m = sup.runSupervised(rc);
    EXPECT_EQ(m.outcome, RunOutcome::Completed);
    expectRowsEqual(ref.rows(), sup.rows(), "periodic");
    std::remove(snap.c_str());
    std::remove((snap + ".manifest").c_str());
}

TEST(ResumeEquivalence, CheckpointRejectsMismatchedRunner)
{
    const std::string snap = tempSnap("resume_eq_mismatch");
    Workload wl = tiny();
    MultiConfigRunner donor(wl, driver(FilterMode::Trilinear, 3));
    addSims(donor, {});
    clearCancellation();
    ResilienceConfig rc;
    rc.checkpoint_path = snap;
    donor.runSupervised(rc, [&](const FrameRow &row) {
        if (row.frame == 0)
            requestCancellation();
    });
    clearCancellation();

    // Fewer sims.
    {
        Workload wl2 = tiny();
        MultiConfigRunner other(wl2, driver(FilterMode::Trilinear, 3));
        other.addSim(CacheSimConfig::pull(128 << 10), "pull");
        try {
            other.loadCheckpoint(snap);
            FAIL() << "sim-count skew accepted";
        } catch (const Exception &e) {
            EXPECT_EQ(e.code(), ErrorCode::VersionMismatch);
        }
    }
    // Different label.
    {
        Workload wl2 = tiny();
        MultiConfigRunner other(wl2, driver(FilterMode::Trilinear, 3));
        CacheSimConfig pull = CacheSimConfig::pull(128 << 10);
        other.addSim(pull, "renamed");
        for (uint64_t mb : {2ull, 4ull, 8ull})
            other.addSim(CacheSimConfig::twoLevel(128 << 10, mb << 20),
                         "l2-" + std::to_string(mb) + "mb");
        try {
            other.loadCheckpoint(snap);
            FAIL() << "label skew accepted";
        } catch (const Exception &e) {
            EXPECT_EQ(e.code(), ErrorCode::VersionMismatch);
        }
    }
    // Different driver config (frame count).
    {
        Workload wl2 = tiny();
        MultiConfigRunner other(wl2, driver(FilterMode::Trilinear, 9));
        addSims(other, {});
        try {
            other.loadCheckpoint(snap);
            FAIL() << "driver-config skew accepted";
        } catch (const Exception &e) {
            EXPECT_EQ(e.code(), ErrorCode::VersionMismatch);
        }
    }
    std::remove(snap.c_str());
    std::remove((snap + ".manifest").c_str());
}

TEST(ResumeEquivalence, WallBudgetStopsEarlyWithCheckpoint)
{
    const std::string snap = tempSnap("resume_eq_budget");
    clearCancellation();
    Workload wl = tiny();
    MultiConfigRunner sup(wl, driver(FilterMode::Trilinear, 50));
    addSims(sup, {});
    ResilienceConfig rc;
    rc.checkpoint_path = snap;
    rc.wall_budget_ms = 0.000001; // exhausted after the first frame
    RunManifest m = sup.runSupervised(rc);
    EXPECT_EQ(m.outcome, RunOutcome::BudgetExhausted);
    EXPECT_LT(m.frames_completed, 50);
    EXPECT_EQ(m.next_frame, m.frames_completed);

    // The checkpoint written at the stop is a valid resume point.
    Workload wl2 = tiny();
    MultiConfigRunner rest(wl2, driver(FilterMode::Trilinear, 50));
    addSims(rest, {});
    EXPECT_EQ(rest.loadCheckpoint(snap),
              static_cast<uint32_t>(m.next_frame));
    std::remove(snap.c_str());
    std::remove((snap + ".manifest").c_str());
}

} // namespace
} // namespace mltc
