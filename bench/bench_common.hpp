/**
 * @file
 * Shared plumbing for the experiment benches (one binary per paper
 * table/figure). Each bench prints the paper-style table/series to
 * stdout and writes a CSV next to it (MLTC_OUT_DIR overrides where).
 *
 * Frame counts: the paper runs 411 (Village) / 525 (City) frames; bench
 * defaults are lower to keep the full single-core sweep fast. Set
 * MLTC_FRAMES to override (e.g. MLTC_FRAMES=411 for paper-length runs);
 * the camera path is identical, just sampled at a different rate.
 *
 * Legs and workload builds share one pool (benchPool(), MLTC_JOBS), and
 * a bench builds each workload it names once, before its legs start.
 * Every bench parses its arguments with parseArguments() and ends with
 * CommandLine::rejectUnread(), so a flag it does not read exits 2
 * instead of being ignored.
 */
#ifndef MLTC_BENCH_COMMON_HPP
#define MLTC_BENCH_COMMON_HPP

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/multi_config_runner.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/resilience.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/registry.hpp"

namespace mltc::bench {

/** Bytes -> MB (decimal MiB as the paper plots). */
inline double
mb(uint64_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/** Bytes -> KB. */
inline double
kb(uint64_t bytes)
{
    return static_cast<double>(bytes) / 1024.0;
}

/**
 * Parse the command line of a bench that reads no flags: any flag is
 * unknown and prints a typed [bad-argument] error. Returns
 * parseArguments()'s status: 0, or the usage status 2.
 */
inline int
rejectFlags(int argc, char **argv)
{
    const CommandLine cli(argc, argv);
    return parseArguments([&] { cli.rejectUnread(); });
}

/** Frame count for this bench run. */
inline int
frames(int bench_default)
{
    return benchFrameCount(bench_default);
}

/** CSV path in the output directory. */
inline std::string
csvPath(const std::string &name)
{
    return benchOutputDir() + "/" + name;
}

/** Banner printed by every bench. */
inline void
banner(const char *experiment, const char *description)
{
    std::printf("=== %s ===\n%s\n", experiment, description);
}

/** Footer noting the CSV artefact. */
inline void
wroteCsv(const std::string &path)
{
    std::printf("[csv] %s\n\n", path.c_str());
}

/** Close (flushing + checking the stream) and note the CSV artefact. */
inline void
wroteCsv(CsvWriter &csv)
{
    csv.close();
    wroteCsv(csv.path());
}

/**
 * The bench's one worker pool, made on first use, for MLTC_JOBS
 * threads (default hardware concurrency): the thread that runs a sweep
 * or a build works beside MLTC_JOBS - 1 workers (jobsPool()). Null when
 * MLTC_JOBS is 1, which runs every leg and every build serially on the
 * calling thread. Benches take no --jobs flag: the environment is the
 * one knob, consistent with MLTC_FRAMES/MLTC_OUT_DIR. See
 * docs/parallelism.md.
 */
inline ThreadPool *
benchPool()
{
    static const std::unique_ptr<ThreadPool> pool =
        jobsPool(ThreadPool::defaultJobs());
    return pool.get();
}

/**
 * Build each of @p names once, in order, with its textures synthesized
 * on benchPool() (the same bytes as a serial build), keyed by name.
 * Build before the legs start; legs read the result as
 * `const Workload &`, and only a leg that mutates its workload builds
 * a private one.
 */
inline std::map<std::string, Workload>
buildWorkloads(const std::vector<std::string> &names)
{
    std::map<std::string, Workload> built;
    for (const std::string &name : names)
        built.emplace(name, buildWorkload(name, benchPool()));
    return built;
}

/**
 * Run the sweep, then report every failed or cancelled leg to stderr in
 * leg order. Returns true iff every leg completed — benches exit
 * non-zero otherwise, after emitting whatever legs did finish.
 */
inline bool
runLegs(SweepExecutor &sweep)
{
    const SweepManifest manifest = sweep.run();
    bool ok = true;
    for (const LegResult &lr : manifest.legs) {
        if (lr.outcome == LegOutcome::Completed)
            continue;
        std::fprintf(stderr, "[%s] leg %s%s%s\n", lr.name.c_str(),
                     legOutcomeName(lr.outcome),
                     lr.error.empty() ? "" : ": ", lr.error.c_str());
        ok = false;
    }
    return ok;
}

/** wroteCsv into a leg's ordered stdout buffer. */
inline void
wroteCsv(LegContext &ctx, CsvWriter &csv)
{
    csv.close();
    ctx.printf("[csv] %s\n\n", csv.path().c_str());
}

/** Report a supervised leg's outcome; quarantines go to stderr. */
inline void
reportManifest(const std::string &leg, const RunManifest &manifest)
{
    if (manifest.outcome != RunOutcome::Completed)
        std::fprintf(stderr, "[%s] run %s after %d frames\n", leg.c_str(),
                     runOutcomeName(manifest.outcome),
                     manifest.frames_completed);
    for (const ManifestEntry &sim : manifest.entries)
        if (sim.quarantined)
            std::fprintf(stderr,
                         "[%s] sim '%s' quarantined at frame %d: %s\n",
                         leg.c_str(), sim.label.c_str(), sim.quarantined_at,
                         sim.error.describe().c_str());
}

} // namespace mltc::bench

#endif // MLTC_BENCH_COMMON_HPP
