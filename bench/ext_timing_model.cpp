/**
 * @file
 * Extension: transaction-level timing of the pull vs L2 architectures.
 *
 * Prices every counted transaction with explicit AGP / local-DRAM
 * latency+bandwidth parameters, producing frame-time and fps bounds, and
 * compares the *effective* fractional advantage against the paper's
 * analytic §5.4.2 model (Table 7's c = 8 assumption).
 */
#include "bench_common.hpp"
#include "model/performance_model.hpp"
#include "model/timing_model.hpp"
#include "sim/multi_config_runner.hpp"
#include "workload/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Extension: timing model",
           "Frame-time bounds (AGP 512 MB/s, local DRAM 1 GB/s) and "
           "effective fractional advantage vs the analytic model");

    const int n_frames = frames(36);
    const TimingParams tp;

    // One leg per workload on the work-stealing pool (MLTC_JOBS);
    // tables stream through the ordered leg buffers and CSV rows land
    // in leg-indexed slots — byte-identical for any worker count.
    const std::vector<std::string> names = workloadNames();
    std::vector<std::vector<std::vector<std::string>>> csv_rows(
        names.size());
    const auto built = buildWorkloads(names);
    SweepExecutor sweep(benchPool());
    for (size_t w = 0; w < names.size(); ++w) {
        const std::string name = names[w];
        sweep.addLeg(name, [&, w, name](LegContext &ctx) {
            const Workload &wl = built.at(name);
            DriverConfig cfg;
            cfg.filter = FilterMode::Trilinear;
            cfg.frames = n_frames;

            MultiConfigRunner runner(wl, cfg);
            runner.addSim(CacheSimConfig::pull(2 * 1024), "pull-2KB");
            runner.addSim(CacheSimConfig::pull(16 * 1024), "pull-16KB");
            runner.addSim(CacheSimConfig::twoLevel(2 * 1024, 2ull << 20),
                          "2KB+2MB-L2");
            runner.run();

            TextTable table({name + " architecture", "texture ms/frame",
                             "host bus ms/frame", "frame ms",
                             "fps bound"});
            for (size_t i = 0; i < runner.sims().size(); ++i) {
                const CacheSim &sim = *runner.sims()[i];
                // Average per-frame counters for timing.
                CacheFrameStats avg = sim.totals();
                uint32_t n = sim.frames();
                avg.accesses /= n;
                avg.l1_misses /= n;
                avg.l2_full_hits /= n;
                avg.l2_partial_hits /= n;
                avg.l2_full_misses /= n;
                avg.host_bytes /= n;
                avg.l2_read_bytes /= n;

                ArchTiming t = sim.l2() ? timeL2Frame(avg, tp)
                                        : timePullFrame(avg, tp);
                table.addRow(sim.label(),
                             {t.texture_path_ms, t.host_bus_ms, t.frame_ms,
                              t.fps_bound},
                             2);
                csv_rows[w].push_back({name, sim.label(),
                                       formatDouble(t.texture_path_ms, 3),
                                       formatDouble(t.host_bus_ms, 3),
                                       formatDouble(t.frame_ms, 3),
                                       formatDouble(t.fps_bound, 1)});
            }
            ctx.write(table.render());

            // Effective vs analytic fractional advantage for the L2
            // config.
            const CacheFrameStats &l2t = runner.sims()[2]->totals();
            PerformanceInputs in;
            in.l1_hit_rate = l2t.l1HitRate();
            in.l2_full_hit_rate = l2t.l2FullHitRate();
            in.l2_partial_hit_rate = l2t.l2PartialHitRate();
            in.full_miss_cost = 8.0;
            double f_analytic = fractionalAdvantage(in);
            double f_effective = effectiveFractionalAdvantage(l2t, tp);
            ctx.printf("%s fractional advantage: analytic (c=8) %.3f, "
                       "timing-model %.3f -> both %s 1\n\n",
                       name.c_str(), f_analytic, f_effective,
                       (f_analytic < 1 && f_effective < 1) ? "<" : ">=");
        });
    }
    if (!runLegs(sweep))
        return 1;

    CsvWriter csv(csvPath("ext_timing_model.csv"),
                  {"workload", "arch", "texture_ms", "host_bus_ms",
                   "frame_ms", "fps_bound"});
    for (const auto &leg_rows : csv_rows)
        for (const auto &row : leg_rows)
            csv.rowStrings(row);
    wroteCsv(csv.path());
    return 0;
}
