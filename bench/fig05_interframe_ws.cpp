/**
 * @file
 * Figure 5: per-frame total versus *new* L2 memory (16x16 tiles, point
 * sampling) — the inter-frame working set drifts slowly.
 *
 * Paper headline: only ~150 KB (Village) / ~40 KB (City) of the
 * per-frame texture blocks are new each frame.
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

    banner("Figure 5",
           "Total vs new per-frame L2 memory, 16x16 tiles (point "
           "sampling)");

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
            runner.addWorkingSets({16}, {});

            CsvWriter csv(csvPath("fig05_interframe_ws_" + name + ".csv"),
                          {"frame", "total_mb", "new_kb"});
            double total_sum = 0, new_sum = 0;
            int counted = 0;
            runner.run([&](const FrameRow &row) {
                const auto &ws = row.working_sets->l2[0];
                csv.row({static_cast<double>(row.frame),
                         mb(ws.bytesTouched()), kb(ws.bytesNew())});
                if (row.frame > 0) { // frame 0 is all-new by construction
                    total_sum += mb(ws.bytesTouched());
                    new_sum += kb(ws.bytesNew());
                    ++counted;
                }
            });
            ctx.printf("%-8s avg total %.2f MB/frame, avg new %.0f "
                       "KB/frame (paper: ~150 KB Village / ~40 KB City at "
                       "411/525 frames)\n",
                       name.c_str(), total_sum / counted,
                       new_sum / counted);
            wroteCsv(ctx, csv);
        });
    const bool ok = runLegs(sweep);
    std::printf("note: fewer frames -> faster camera -> proportionally "
                "larger 'new' per frame; MLTC_FRAMES=411 reproduces the "
                "paper's pacing.\n\n");
    return ok ? 0 : 1;
}
