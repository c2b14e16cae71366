/**
 * @file
 * Extension (paper §6 future work #3): a "workload of the future".
 *
 * The Terrain workload drapes one uniquely-mapped 2048^2 texture over a
 * landscape (no repetition -> utilisation < 1, large working set) and
 * flies low across it. This bench measures where L2 capacity starts to
 * matter: bandwidth and full-hit rate for 2/8/32 MB L2 caches, plus the
 * workload statistics in Table-1 form.
 */
#include "bench_common.hpp"
#include "model/working_set_model.hpp"
#include "sim/multi_config_runner.hpp"
#include "workload/terrain.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Extension: future workload (Terrain)",
           "Uniquely-textured terrain fly-over: L2 capacity sensitivity "
           "(2KB L1, trilinear)");

    const int n_frames = frames(36);
    const Workload wl = buildTerrain({}, benchPool());
    std::printf("terrain: %zu objects, %s of texture (one unique 2048^2 "
                "satellite map)\n",
                wl.scene.objects().size(),
                formatBytes(static_cast<double>(
                                wl.textures->totalHostBytes()))
                    .c_str());

    DriverConfig cfg;
    cfg.filter = FilterMode::Trilinear;
    cfg.frames = n_frames;

    MultiConfigRunner runner(wl, cfg);
    for (uint64_t mb : {2ull, 8ull, 32ull})
        runner.addSim(CacheSimConfig::twoLevel(2 * 1024, mb << 20),
                      std::to_string(mb) + "MB");
    runner.addSim(CacheSimConfig::pull(2 * 1024), "pull");
    runner.addWorkingSets({16}, {});
    runner.run();

    // Table-1 style statistics.
    double d_sum = 0, util_sum = 0, ws_sum = 0;
    for (const auto &row : runner.rows()) {
        d_sum += row.raster.depthComplexity(cfg.width, cfg.height);
        util_sum += row.working_sets->utilization(0);
        ws_sum += mb(row.working_sets->l2[0].bytesTouched());
    }
    double n = static_cast<double>(runner.rows().size());
    std::printf("depth complexity d = %.2f, utilization = %.2f "
                " , working set = %.1f MB/frame\n\n",
                d_sum / n, util_sum / n, ws_sum / n);

    CsvWriter csv(csvPath("ext_future_workload.csv"),
                  {"config", "mb_per_frame", "h2full"});
    TextTable table({"config", "host MB/frame", "h2full", "note"});
    double pull_avg = runner.averageHostBytesPerFrame(3) / (1 << 20);
    for (size_t i = 0; i < 3; ++i) {
        const CacheSim &sim = *runner.sims()[i];
        double avg = runner.averageHostBytesPerFrame(i) / (1 << 20);
        table.addRow({sim.label() + " L2", formatDouble(avg, 2),
                      formatPercent(sim.totals().l2FullHitRate()),
                      "saving " + formatDouble(pull_avg / avg, 1) + "x"});
        csv.rowStrings({sim.label(), formatDouble(avg, 4),
                        formatDouble(sim.totals().l2FullHitRate(), 4)});
    }
    table.addRow({"pull", formatDouble(pull_avg, 2), "-", "baseline"});
    csv.rowStrings({"pull", formatDouble(pull_avg, 4), "0"});
    table.print();
    std::printf("(unlike Village/City, a small L2 no longer holds the "
                "working set: capacity scaling shows through)\n\n");
    wroteCsv(csv.path());
    return 0;
}
