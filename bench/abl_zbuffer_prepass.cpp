/**
 * @file
 * Ablation (paper §6 future work #1): z-buffering *before* texture
 * retrieval. A depth pre-pass reduces effective texture depth complexity
 * to ~1, shrinking both the working set and the download bandwidth —
 * quantified here against the default texture-before-z pipeline.
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

    banner("Ablation: z-prepass before texturing",
           "Depth complexity, working set and bandwidth with and without "
           "a depth pre-pass (2KB L1 + 2MB L2, trilinear)");

    const int n_frames = frames(36);
    CsvWriter csv(csvPath("abl_zbuffer_prepass.csv"),
                  {"workload", "mode", "depth_complexity", "ws_mb",
                   "mb_per_frame"});

    for (const std::string &name : workloadNames()) {
        TextTable table({name + " mode", "depth d", "L2 WS (MB/frame)",
                         "host MB/frame"});
        const Workload wl = buildWorkload(name, benchPool());
        for (int mode = 0; mode < 2; ++mode) {
            DriverConfig cfg;
            cfg.filter = FilterMode::Trilinear;
            cfg.frames = n_frames;
            cfg.z_prepass = mode == 1;

            MultiConfigRunner runner(wl, cfg);
            runner.addSim(CacheSimConfig::twoLevel(2 * 1024, 2ull << 20),
                          "sim");
            runner.addWorkingSets({16}, {});
            runner.run();

            double d_sum = 0, ws_sum = 0;
            for (const auto &row : runner.rows()) {
                d_sum += row.raster.depthComplexity(cfg.width, cfg.height);
                ws_sum += mb(row.working_sets->l2[0].bytesTouched());
            }
            double n = static_cast<double>(runner.rows().size());
            double bw = runner.averageHostBytesPerFrame(0) /
                        (1024.0 * 1024.0);
            const char *label = mode ? "z-prepass" : "texture-before-z";
            table.addRow(label, {d_sum / n, ws_sum / n, bw}, 2);
            csv.rowStrings({name, label, formatDouble(d_sum / n, 3),
                            formatDouble(ws_sum / n, 3),
                            formatDouble(bw, 3)});
        }
        table.print();
        std::printf("\n");
    }
    std::printf("(paper §6: z-before-texture 'should reduce texture depth "
                "to something close to one')\n");
    wroteCsv(csv.path());
    return 0;
}
