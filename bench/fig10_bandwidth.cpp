/**
 * @file
 * Figure 10: per-frame host download bandwidth with and without an L2
 * cache — 2 KB and 16 KB L1 caches alone (pull architecture) versus a
 * 2 KB L1 backed by 2, 4 and 8 MB L2 caches of 16x16 tiles. Trilinear.
 *
 * Paper headline: without L2 the Village needs ~1.6 GB/s (2 KB L1) or
 * ~475 MB/s (16 KB L1) at 30 Hz — beyond AGP; a 2 MB L2 drops the 2 KB
 * L1 requirement to ~92 MB/s, a 5x-18x saving.
 *
 * Supports the shared resilience flags (--checkpoint, --resume,
 * --deadline-ms, --budget-ms, --audit; see sim/resilience.hpp). The CSV
 * is emitted from the accumulated rows *after* the run, so a resumed
 * run writes the complete series, not just the frames it rendered.
 */
#include "bench_common.hpp"
#include "sim/multi_config_runner.hpp"
#include "workload/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    CommandLine cli(argc, argv);
    ResilienceConfig resilience;
    if (const int status = parseArguments([&] {
            resilience = resilienceFromCli(cli);
            cli.rejectUnread();
        }))
        return status;
    installCancellationHandlers();

    banner("Figure 10",
           "Per-frame download bandwidth (MB/frame), trilinear, 16x16 L2 "
           "tiles: pull (2KB/16KB L1) vs 2KB L1 + 2/4/8MB L2");

    const int n_frames = frames(48);
    // One leg per workload on the work-stealing pool (MLTC_JOBS); each
    // leg owns its CSV and its stdout block is buffered and flushed in
    // leg order — byte-identical output for any worker count.
    const std::vector<std::string> names = workloadNames();
    std::vector<RunManifest> manifests(names.size());
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
                          "2KB+2MB");
            runner.addSim(CacheSimConfig::twoLevel(2 * 1024, 4ull << 20),
                          "2KB+4MB");
            runner.addSim(CacheSimConfig::twoLevel(2 * 1024, 8ull << 20),
                          "2KB+8MB");

            manifests[w] = runner.runSupervised(
                legResilience(resilience, "." + name + ".snap"));
            if (manifests[w].outcome != RunOutcome::Completed)
                return;

            CsvWriter csv(csvPath("fig10_bandwidth_" + name + ".csv"),
                          {"frame", "pull_2kb_mb", "pull_16kb_mb",
                           "l2_2mb_mb", "l2_4mb_mb", "l2_8mb_mb"});
            for (const FrameRow &row : runner.rows()) {
                std::vector<double> vals{static_cast<double>(row.frame)};
                for (const auto &sim : row.sims)
                    vals.push_back(mb(sim.host_bytes));
                csv.row(vals);
            }

            ctx.printf("%-8s avg MB/frame (MB/s @30Hz):\n", name.c_str());
            double pull2 = 0;
            for (size_t i = 0; i < runner.sims().size(); ++i) {
                double avg = runner.averageHostBytesPerFrame(i) /
                             (1024.0 * 1024.0);
                if (i == 0)
                    pull2 = avg;
                ctx.printf("  %-9s %8.2f MB/frame  (%7.1f MB/s)%s\n",
                           runner.sims()[i]->label().c_str(), avg,
                           avg * 30.0,
                           i >= 2 ? (" saving vs pull-2KB: " +
                                     formatDouble(pull2 / avg, 1) + "x")
                                        .c_str()
                                  : "");
            }
            wroteCsv(ctx, csv);
        });
    }
    bool ok = runLegs(sweep);
    for (size_t w = 0; w < names.size(); ++w) {
        reportManifest(names[w], manifests[w]);
        if (manifests[w].outcome != RunOutcome::Completed)
            ok = false;
    }
    if (!ok)
        return 1;
    std::printf("(paper shape: 2MB L2 saves 5x-18x vs pull; AGP 1.0 "
                "delivers ~512 MB/s)\n\n");
    return 0;
}
