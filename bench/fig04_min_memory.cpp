/**
 * @file
 * Figure 4: per-frame minimum texture memory — all textures loaded in
 * main memory, the push architecture's oracle minimum (whole textures
 * touched per frame), and the L2 caching architecture's minimum (blocks
 * touched per frame) for 32x32, 16x16 and 8x8 L2 tiles. Point sampling.
 *
 * Paper headline: L2 caching needs ~3.9 MB (Village) / ~1.5 MB (City)
 * versus ~12 MB / ~7.4 MB for push — a 3x-5x local-memory saving.
 */
#include <algorithm>

#include "bench_common.hpp"
#include "sim/multi_config_runner.hpp"
#include "workload/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Figure 4",
           "Minimum per-frame texture memory (MB): loaded / push oracle / "
           "L2 by tile size (point sampling)");

    const int n_frames = frames(96);
    // One leg per workload on the work-stealing pool (MLTC_JOBS); each
    // leg owns its CSV and buffers its stdout block, flushed in leg
    // order — byte-identical output for any worker count.
    const std::vector<std::string> names = workloadNames();
    const auto built = buildWorkloads(names);
    SweepExecutor sweep(benchPool());
    for (const std::string &name : names)
        sweep.addLeg(name, [&, name](LegContext &ctx) {
            const Workload &wl = built.at(name);
            DriverConfig cfg;
            cfg.filter = FilterMode::Point;
            cfg.frames = n_frames;

            MultiConfigRunner runner(wl, cfg);
            runner.addWorkingSets({32, 16, 8}, {});
            runner.addPushModel();

            CsvWriter csv(csvPath("fig04_min_memory_" + name + ".csv"),
                          {"frame", "loaded_mb", "push_mb", "l2_32_mb",
                           "l2_16_mb", "l2_8_mb"});
            double push_peak = 0, l2_peak[3] = {0, 0, 0};
            double push_sum = 0, l2_sum[3] = {0, 0, 0};
            runner.run([&](const FrameRow &row) {
                const auto &ws = *row.working_sets;
                double push_mb = mb(row.push_bytes);
                double l2mb[3];
                for (int i = 0; i < 3; ++i) {
                    l2mb[i] =
                        mb(ws.l2[static_cast<size_t>(i)].bytesTouched());
                    l2_peak[i] = std::max(l2_peak[i], l2mb[i]);
                    l2_sum[i] += l2mb[i];
                }
                push_peak = std::max(push_peak, push_mb);
                push_sum += push_mb;
                csv.row({static_cast<double>(row.frame),
                         mb(ws.loaded_bytes), push_mb, l2mb[0], l2mb[1],
                         l2mb[2]});
            });

            double n = static_cast<double>(runner.rows().size());
            ctx.printf(
                "%-8s loaded=%.1f MB  push(avg/peak)=%.2f/%.2f MB  "
                "L2-32=%.2f/%.2f  L2-16=%.2f/%.2f  L2-8=%.2f/%.2f MB\n",
                name.c_str(), mb(wl.textures->totalHostBytes()),
                push_sum / n, push_peak, l2_sum[0] / n, l2_peak[0],
                l2_sum[1] / n, l2_peak[1], l2_sum[2] / n, l2_peak[2]);
            ctx.printf("%-8s push/L2-16 memory saving: avg %.1fx, peak "
                       "%.1fx (paper: 3x-5x)\n",
                       name.c_str(), push_sum / l2_sum[1],
                       push_peak / l2_peak[1]);
            wroteCsv(ctx, csv);
        });
    return runLegs(sweep) ? 0 : 1;
}
