/**
 * @file
 * Table 1: measured depth complexity d, block utilisation and expected
 * inter-frame working set W for the Village and City animations
 * (1024x768, point sampling, 16x16 L2 tiles).
 */
#include "bench_common.hpp"
#include "model/working_set_model.hpp"
#include "sim/multi_config_runner.hpp"
#include "workload/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Table 1",
           "Workload statistics and expected inter-frame working set W\n"
           "(1024x768, point sampling, 16x16 L2 tiles; paper: Village "
           "d=3.8 util=4.7 W=2.43MB, City d=1.9 util=7.8 W=0.73MB)");

    const int n_frames = frames(96);
    TextTable table({"statistic", "Village", "City"});

    // One leg per workload on the work-stealing pool (MLTC_JOBS);
    // results land in leg-indexed slots and the table/CSV are rendered
    // after the sweep — byte-identical output for any worker count.
    const std::vector<std::string> names = workloadNames();
    std::vector<double> d_row(names.size()), util_row(names.size()),
        w_row(names.size());
    const auto built = buildWorkloads(names);
    SweepExecutor sweep(benchPool());
    for (size_t w = 0; w < names.size(); ++w) {
        const std::string name = names[w];
        sweep.addLeg(name, [&, w, name](LegContext &) {
            const Workload &wl = built.at(name);
            DriverConfig cfg;
            cfg.filter = FilterMode::Point;
            cfg.frames = n_frames;

            MultiConfigRunner runner(wl, cfg);
            runner.addWorkingSets({16}, {});
            runner.run();

            // Average d and utilisation over all frames.
            double d_sum = 0.0, util_sum = 0.0;
            uint64_t n = 0;
            for (const auto &row : runner.rows()) {
                d_sum += row.raster.depthComplexity(cfg.width, cfg.height);
                util_sum += row.working_sets->utilization(0);
                ++n;
            }
            double d = d_sum / static_cast<double>(n);
            double util = util_sum / static_cast<double>(n);
            d_row[w] = d;
            util_row[w] = util;
            w_row[w] = expectedWorkingSetBytes(
                           static_cast<uint64_t>(cfg.width) *
                               static_cast<uint64_t>(cfg.height),
                           d, util) /
                       (1024.0 * 1024.0);
        });
    }
    if (!runLegs(sweep))
        return 1;

    table.addRow("Depth complexity, d", d_row, 2);
    table.addRow("Block utilization", util_row, 2);
    table.addRow("Expected working set W (MB)", w_row, 2);
    table.print();

    CsvWriter csv(csvPath("tab01_workload_stats.csv"),
                  {"workload", "depth_complexity", "utilization",
                   "expected_ws_mb"});
    for (size_t i = 0; i < names.size(); ++i)
        csv.rowStrings({names[i], formatDouble(d_row[i], 3),
                        formatDouble(util_row[i], 3),
                        formatDouble(w_row[i], 3)});
    wroteCsv(csv.path());
    return 0;
}
