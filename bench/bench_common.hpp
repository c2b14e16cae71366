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
 */
#ifndef MLTC_BENCH_COMMON_HPP
#define MLTC_BENCH_COMMON_HPP

#include <cstdio>
#include <string>

#include "sim/multi_config_runner.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/resilience.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

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
 * Worker count for a bench sweep: MLTC_JOBS if set, else hardware
 * concurrency. Benches take no --jobs flag (several take no flags at
 * all), so the environment is the one knob — consistent with
 * MLTC_FRAMES/MLTC_OUT_DIR. See docs/parallelism.md.
 */
inline unsigned
benchJobs()
{
    return ThreadPool::defaultJobs();
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
