/**
 * @file
 * Extension: single-pass MRC validation.
 *
 * The reuse-distance profiler claims one profiled run predicts the
 * miss ratio of a fully-associative LRU cache at *every* capacity.
 * This bench checks that claim exhaustively: record a short Village
 * and City clip, replay it once through a profiled simulator (sample
 * rate 1.0), then replay the identical trace into real
 * fully-associative LRU CacheSims at each swept capacity and compare
 * the measured miss ratio with the one-pass prediction. The bench
 * fails (exit 1) if any capacity deviates by more than 0.5% absolute.
 *
 * A second profiled pass at SHARDS sample rate 1/16 is reported for
 * context (sampling error is workload-dependent; not asserted).
 */
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/cache_sim.hpp"
#include "obs/reuse_profiler.hpp"
#include "sim/animation_driver.hpp"
#include "trace/trace_io.hpp"
#include "workload/registry.hpp"

namespace {

using namespace mltc;
using namespace mltc::bench;

/** Capacities (in 64-byte L1 lines) swept exhaustively. */
constexpr uint64_t kSweptLines[] = {4, 16, 64, 256, 1024};

constexpr double kTolerance = 0.005; ///< 0.5% absolute, per ISSUE spec

/** Replay the whole trace at @p path into @p sim, frame by frame. */
void
replayInto(const std::string &path, CacheSim &sim)
{
    TraceReader reader(path);
    while (reader.replayFrame(sim))
        sim.endFrame();
}

/** One profiled replay; returns the profiler for inspection. */
std::unique_ptr<ReuseProfiler>
profiledReplay(const std::string &path, const Workload &wl, double rate)
{
    CacheSimConfig sc = CacheSimConfig::pull(4 * 1024);
    CacheSim sim(*wl.textures, sc, "profiled");
    ReuseProfilerConfig pc;
    pc.enabled = true;
    pc.sample_rate = rate;
    pc.l1_unit_bytes = sc.l1.lineBytes();
    pc.l2_unit_bytes = sc.l1.lineBytes();
    auto profiler = std::make_unique<ReuseProfiler>(pc);
    sim.setReuseProfiler(profiler.get());
    replayInto(path, sim);
    return profiler;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Extension: single-pass MRC validation",
           "One-pass reuse-distance MRC vs exhaustive fully-associative "
           "LRU sweeps (tolerance 0.5% absolute)");

    const int n_frames = frames(2);

    // One leg per workload on the bench pool (MLTC_JOBS), over the
    // workload built once before the sweep; each leg records and
    // replays its own private trace clip, so legs stay independent. CSV rows land in leg-indexed slots and tables
    // stream through the ordered leg buffers — byte-identical for any
    // worker count.
    const std::vector<std::string> names = {"village", "city"};
    std::vector<std::vector<std::vector<std::string>>> csv_rows(
        names.size());
    std::vector<int> fail_counts(names.size(), 0);
    const auto built = buildWorkloads(names);
    SweepExecutor sweep(benchPool());
    for (size_t w = 0; w < names.size(); ++w) {
        const std::string name = names[w];
        sweep.addLeg(name, [&, w, name](LegContext &ctx) {
            const Workload &wl = built.at(name);
            // Half-resolution keeps the trace small; the reference
            // stream's locality structure is what matters, not the
            // pixel count.
            DriverConfig cfg;
            cfg.width = 512;
            cfg.height = 384;
            cfg.filter = FilterMode::Bilinear;
            cfg.frames = n_frames;

            const std::string trace_path =
                csvPath("ext_mrc_validation." + name + ".trace.bin");
            {
                TraceWriter writer(trace_path);
                runAnimation(wl, cfg, &writer, [&](int, const FrameStats &) {
                    writer.endFrame();
                });
                writer.close();
            }

            const auto exact = profiledReplay(trace_path, wl, 1.0);
            const auto sampled = profiledReplay(trace_path, wl, 1.0 / 16.0);
            const uint64_t line_bytes = exact->config().l1_unit_bytes;

            TextTable table({"capacity", "predicted", "measured", "abs err",
                             "sampled (1/16)"});
            for (uint64_t lines : kSweptLines) {
                CacheSimConfig sc = CacheSimConfig::pull(lines * line_bytes);
                sc.l1.assoc = 0; // fully associative, true-LRU stamps
                CacheSim sim(*wl.textures, sc, "swept");
                replayInto(trace_path, sim);
                const CacheFrameStats &t = sim.totals();
                const double measured =
                    static_cast<double>(t.l1_misses) /
                    static_cast<double>(t.accesses);
                const double predicted = exact->l1().missRatio(lines);
                const double sampled_ratio = sampled->l1().missRatio(lines);
                const double err = std::fabs(predicted - measured);
                if (err > kTolerance)
                    ++fail_counts[w];
                table.addRow({formatBytes(static_cast<double>(
                                  lines * line_bytes)),
                              formatPercent(predicted, 3),
                              formatPercent(measured, 3),
                              formatPercent(err, 4) +
                                  (err > kTolerance ? " FAIL" : ""),
                              formatPercent(sampled_ratio, 3)});
                csv_rows[w].push_back(
                    {name, std::to_string(lines * line_bytes),
                     formatDouble(predicted, 6), formatDouble(measured, 6),
                     formatDouble(err, 6), formatDouble(sampled_ratio, 6)});
            }
            ctx.printf("\n%s (%d frames, %dx%d bilinear):\n", name.c_str(),
                       n_frames, cfg.width, cfg.height);
            ctx.write(table.render());
            std::remove(trace_path.c_str());
        });
    }
    if (!runLegs(sweep))
        return 1;

    CsvWriter csv(csvPath("ext_mrc_validation.csv"),
                  {"workload", "capacity_bytes", "predicted_miss_ratio",
                   "measured_miss_ratio", "abs_error",
                   "sampled_miss_ratio"});
    for (const auto &leg_rows : csv_rows)
        for (const auto &row : leg_rows)
            csv.rowStrings(row);

    int failures = 0;
    for (int f : fail_counts)
        failures += f;
    wroteCsv(csv);
    if (failures > 0) {
        std::fprintf(stderr,
                     "FAIL: %d swept capacities deviate more than %.1f%% "
                     "from the one-pass MRC\n",
                     failures, kTolerance * 100.0);
        return 1;
    }
    std::printf("OK: every swept capacity within %.1f%% of the one-pass "
                "prediction\n",
                kTolerance * 100.0);
    return 0;
}
