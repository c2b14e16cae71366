/**
 * @file
 * The tentpole parallelism property: a sweep of independent simulation
 * legs run through SweepExecutor produces *byte-identical* observable
 * output no matter the worker count. For filters × fault-injection
 * on/off × jobs ∈ {1, 2, 8} this asserts equality of
 *
 *  - every per-frame counter of every leg (FrameRow-level equality),
 *  - the sweep CSV assembled from per-leg results in leg order,
 *  - the merged per-leg metrics JSONL stream,
 *  - the final per-leg checkpoint snapshots (.snap bytes), and
 *  - every leg's outcome in the sweep manifest.
 *
 * Extends the resume-equivalence pattern: legs are complete runner
 * passes over one tiny Workload built before the sweep, exactly how
 * the bench drivers use the executor. Like the drivers, the legs own no Observability
 * (a bundle wires process globals, so there is one per process): the
 * metrics stream comes from a second pass that runs each leg's sims
 * under one bundle at a time, consuming in parallel on the same pool,
 * and must repeat the sweep's rows.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "obs/observability.hpp"
#include "sim/multi_config_runner.hpp"
#include "sim/parallel_runner.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"
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

HostPathConfig
faultyHost()
{
    HostPathConfig host;
    host.fault_injection = true;
    host.faults.seed = 99;
    host.faults.drop_rate = 0.12;
    host.faults.corrupt_rate = 0.05;
    host.faults.spike_rate = 0.05;
    host.faults.burst_period = 150;
    host.faults.burst_length = 15;
    return host;
}

/** One leg of the sweep grid. */
struct LegSpec
{
    std::string name;
    FilterMode filter;
    bool faults;
};

std::vector<LegSpec>
grid()
{
    return {
        {"bilinear/clean", FilterMode::Bilinear, false},
        {"bilinear/faults", FilterMode::Bilinear, true},
        {"trilinear/clean", FilterMode::Trilinear, false},
        {"trilinear/faults", FilterMode::Trilinear, true},
    };
}

// PID-suffixed: ctest runs cases as parallel processes.
std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Everything observable one sweep run produced. */
struct SweepArtifacts
{
    std::vector<std::vector<FrameRow>> rows; ///< per leg
    std::string csv;                         ///< assembled sweep CSV
    std::string metrics;                     ///< merged per-leg JSONL
    std::vector<std::string> snaps;          ///< per-leg snapshot bytes
    std::vector<LegOutcome> outcomes;        ///< per leg, in leg order
};

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
        EXPECT_EQ(x.raster.texel_accesses, y.raster.texel_accesses) << at;
        EXPECT_EQ(x.raster.pixels_textured, y.raster.pixels_textured) << at;
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
            EXPECT_EQ(p.host_retries, q.host_retries) << sim;
            EXPECT_EQ(p.host_failures, q.host_failures) << sim;
            EXPECT_EQ(p.degraded_accesses, q.degraded_accesses) << sim;
        }
    }
}

/** Add @p spec's two simulators to @p runner. */
void
addLegSims(MultiConfigRunner &runner, const LegSpec &spec)
{
    const HostPathConfig host = spec.faults ? faultyHost() : HostPathConfig{};
    CacheSimConfig pull = CacheSimConfig::pull(128 << 10);
    pull.host = host;
    runner.addSim(pull, "pull");
    CacheSimConfig two = CacheSimConfig::twoLevel(128 << 10, 2ull << 20);
    two.tlb_entries = 8;
    two.host = host;
    runner.addSim(two, "l2-2mb");
}

/**
 * Run the whole grid at the given worker count the same way the bench
 * drivers do: one shared Workload, per-leg runner/sims/checkpoint,
 * results into leg-indexed slots, files emitted in leg order after the
 * run; then the metrics pass.
 */
SweepArtifacts
runSweep(unsigned jobs, int frames)
{
    const std::vector<LegSpec> legs = grid();
    const std::string base =
        tempPath("par_eq_j" + std::to_string(jobs));

    SweepArtifacts art;
    art.rows.resize(legs.size());

    const std::unique_ptr<ThreadPool> pool = jobsPool(jobs);
    // One build before the sweep; every leg and the metrics pass read it.
    const Workload wl = tiny();
    SweepExecutor sweep(pool.get());
    for (size_t i = 0; i < legs.size(); ++i) {
        const LegSpec &spec = legs[i];
        sweep.addLeg(spec.name, [&, i, spec](LegContext &) {
            MultiConfigRunner runner(wl, driver(spec.filter, frames));
            addLegSims(runner, spec);
            ResilienceConfig rc;
            rc.checkpoint_path =
                base + ".leg" + std::to_string(i) + ".snap";
            RunManifest m = runner.runSupervised(rc);
            EXPECT_EQ(m.outcome, RunOutcome::Completed) << spec.name;
            art.rows[i] = runner.rows();
        });
    }
    const SweepManifest manifest = sweep.run();
    for (const LegResult &leg : manifest.legs) {
        EXPECT_EQ(leg.outcome, LegOutcome::Completed)
            << "jobs=" << jobs << ", leg " << leg.name;
        art.outcomes.push_back(leg.outcome);
    }

    // The metrics pass: leg by leg, one bundle at a time, the leg's
    // sims consuming on the pool.
    for (size_t i = 0; i < legs.size(); ++i) {
        MultiConfigRunner runner(wl, driver(legs[i].filter, frames),
                                 pool.get());
        addLegSims(runner, legs[i]);
        ObsConfig oc;
        oc.metrics_path = base + ".leg" + std::to_string(i) + ".jsonl";
        Observability obs(oc);
        runner.setObservability(&obs);
        EXPECT_EQ(runner.runSupervised(ResilienceConfig{}).outcome,
                  RunOutcome::Completed)
            << legs[i].name;
        obs.close();
        expectRowsEqual(art.rows[i], runner.rows(),
                        "metrics pass, leg " + legs[i].name);
    }

    // Emit the sweep CSV from per-leg results, strictly in leg order.
    {
        CsvWriter csv(base + ".csv",
                      {"leg", "frame", "sim", "accesses", "l1_misses",
                       "host_bytes", "host_retries", "degraded"});
        for (size_t i = 0; i < legs.size(); ++i)
            for (const FrameRow &row : art.rows[i])
                for (size_t s = 0; s < row.sims.size(); ++s) {
                    const CacheFrameStats &st = row.sims[s];
                    csv.rowStrings(
                        {legs[i].name, std::to_string(row.frame),
                         std::to_string(s), std::to_string(st.accesses),
                         std::to_string(st.l1_misses),
                         std::to_string(st.host_bytes),
                         std::to_string(st.host_retries),
                         std::to_string(st.degraded_accesses)});
                }
        csv.close();
    }
    // Merge per-leg metrics JSONL in leg order.
    for (size_t i = 0; i < legs.size(); ++i)
        art.metrics += slurp(base + ".leg" + std::to_string(i) + ".jsonl");
    for (size_t i = 0; i < legs.size(); ++i)
        art.snaps.push_back(
            slurp(base + ".leg" + std::to_string(i) + ".snap"));
    art.csv = slurp(base + ".csv");

    for (size_t i = 0; i < legs.size(); ++i) {
        std::remove((base + ".leg" + std::to_string(i) + ".jsonl").c_str());
        std::remove((base + ".leg" + std::to_string(i) + ".snap").c_str());
        std::remove(
            (base + ".leg" + std::to_string(i) + ".snap.manifest").c_str());
    }
    std::remove((base + ".csv").c_str());
    return art;
}

TEST(ParallelEquivalence, ThreadCountInvariantBytes)
{
    const int frames = 3;
    const SweepArtifacts serial = runSweep(1, frames);
    ASSERT_EQ(serial.rows.size(), grid().size());
    ASSERT_FALSE(serial.csv.empty());
    ASSERT_FALSE(serial.metrics.empty());

    for (unsigned jobs : {2u, 8u}) {
        const SweepArtifacts par = runSweep(jobs, frames);
        const std::string ctx = "jobs=" + std::to_string(jobs);
        ASSERT_EQ(par.rows.size(), serial.rows.size()) << ctx;
        for (size_t i = 0; i < serial.rows.size(); ++i)
            expectRowsEqual(serial.rows[i], par.rows[i],
                            ctx + " leg " + grid()[i].name);
        EXPECT_EQ(par.csv, serial.csv) << ctx;
        EXPECT_EQ(par.metrics, serial.metrics) << ctx;
        ASSERT_EQ(par.snaps.size(), serial.snaps.size()) << ctx;
        for (size_t i = 0; i < serial.snaps.size(); ++i) {
            EXPECT_FALSE(serial.snaps[i].empty())
                << ctx << " leg " << i << " snapshot missing";
            EXPECT_EQ(par.snaps[i], serial.snaps[i])
                << ctx << " leg " << i << " snapshot bytes differ";
        }
        EXPECT_EQ(par.outcomes, serial.outcomes) << ctx;
    }
}

TEST(ParallelEquivalence, RepeatedParallelRunsAreStable)
{
    // Two identical --jobs 8 sweeps must agree with each other too
    // (guards against any hidden cross-leg state, e.g. a shared RNG).
    const SweepArtifacts a = runSweep(8, 2);
    const SweepArtifacts b = runSweep(8, 2);
    EXPECT_EQ(a.csv, b.csv);
    EXPECT_EQ(a.metrics, b.metrics);
    ASSERT_EQ(a.snaps.size(), b.snaps.size());
    for (size_t i = 0; i < a.snaps.size(); ++i)
        EXPECT_EQ(a.snaps[i], b.snaps[i]) << "leg " << i;
}

} // namespace
} // namespace mltc
