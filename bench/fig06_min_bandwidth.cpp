/**
 * @file
 * Figure 6: minimum per-frame L1 download bandwidth, counting each L1
 * tile hit at least once (total = pull-architecture floor) versus only
 * the tiles not used the previous frame (new = L2-architecture floor),
 * for 8x8 and 4x4 L1 tiles. Point sampling.
 *
 * Paper headline: ~2 MB (Village) / ~510 KB (City) of L1 tiles are hit
 * per frame but only ~110 KB / ~23 KB are new.
 */
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

    banner("Figure 6",
           "Minimum L1 download bandwidth per frame: total vs new, for "
           "8x8 and 4x4 L1 tiles (point sampling)");

    const int n_frames = frames(96);
    // One leg per workload on the work-stealing pool (MLTC_JOBS);
    // leg-ordered buffered stdout keeps output byte-identical for any
    // worker count.
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
            runner.addWorkingSets({}, {8, 4});

            CsvWriter csv(csvPath("fig06_min_bandwidth_" + name + ".csv"),
                          {"frame", "total_8x8_mb", "new_8x8_kb",
                           "total_4x4_mb", "new_4x4_kb"});
            double tot_sum[2] = {0, 0}, new_sum[2] = {0, 0};
            int counted = 0;
            runner.run([&](const FrameRow &row) {
                const auto &l1 = row.working_sets->l1;
                csv.row({static_cast<double>(row.frame),
                         mb(l1[0].bytesTouched()), kb(l1[0].bytesNew()),
                         mb(l1[1].bytesTouched()), kb(l1[1].bytesNew())});
                if (row.frame > 0) {
                    for (int i = 0; i < 2; ++i) {
                        tot_sum[i] +=
                            mb(l1[static_cast<size_t>(i)].bytesTouched());
                        new_sum[i] +=
                            kb(l1[static_cast<size_t>(i)].bytesNew());
                    }
                    ++counted;
                }
            });
            for (int i = 0; i < 2; ++i) {
                int tile = i == 0 ? 8 : 4;
                ctx.printf("%-8s %dx%d: total %.2f MB/frame, new %.0f "
                           "KB/frame -> potential AGP saving %.0fx\n",
                           name.c_str(), tile, tile, tot_sum[i] / counted,
                           new_sum[i] / counted,
                           tot_sum[i] * 1024.0 / new_sum[i]);
            }
            wroteCsv(ctx, csv);
        });
    return runLegs(sweep) ? 0 : 1;
}
