/**
 * @file
 * Table 3: average host/AGP bandwidth (MB/frame) for the Village and
 * City under bilinear and trilinear filtering, with no L2 (pull, 2 KB
 * and 16 KB L1) and with 2/4/8 MB L2 caches of 16x16 tiles.
 *
 * Runs under watchdog supervision; the resilience flags are shared with
 * every bench (see sim/resilience.hpp):
 *   --checkpoint=PATH [--checkpoint-every=N] [--resume]
 *   --deadline-ms=D --budget-ms=B --audit=off|cheap|full
 * plus the --faults / --fault-* family (host/host_cli.hpp) to run the
 * whole table over the fault-injectable host backend. A run killed
 * mid-table resumes from its per-leg checkpoints and emits an identical
 * CSV (scripts/kill_resume.sh proves this with a real SIGKILL).
 *
 * The four (workload, filter) legs run concurrently on the
 * work-stealing pool (MLTC_JOBS, default hardware concurrency); output
 * is byte-identical for any worker count (docs/parallelism.md).
 */
#include <array>
#include <vector>

#include "bench_common.hpp"
#include "host/host_cli.hpp"
#include "sim/multi_config_runner.hpp"
#include "util/io.hpp"
#include "workload/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    CommandLine cli(argc, argv);
    ResilienceConfig resilience;
    HostPathConfig host;
    if (const int status = parseArguments([&] {
            resilience = resilienceFromCli(cli);
            host = hostPathFromCli(cli);
            installIoFaultsFromCli(cli); // --io-faults=eio=R,...,seed=S
            cli.rejectUnread();
        }))
        return status;
    installCancellationHandlers();

    banner("Table 3",
           "Average download bandwidth MB/frame, bilinear (BL) and "
           "trilinear (TL), with and without L2 (16x16 tiles)");

    const int n_frames = frames(24);
    const char *config_names[] = {"pull 2KB L1", "pull 16KB L1",
                                  "2KB L1 + 2MB L2", "2KB L1 + 4MB L2",
                                  "2KB L1 + 8MB L2"};

    // One leg per (workload, filter), over the workloads built once
    // before the sweep: each leg owns its five-sim runner, checkpoints
    // to its own `<base>.<leg>.snap`, and
    // drops its averages into a leg-indexed slot. The CSV and tables
    // are rendered after the sweep in leg order, so the bytes are
    // identical for any MLTC_JOBS (docs/parallelism.md).
    const std::vector<std::string> names = workloadNames();
    const FilterMode filters[] = {FilterMode::Bilinear,
                                  FilterMode::Trilinear};
    const size_t n_legs = names.size() * 2;
    std::vector<std::array<double, 5>> avgs(n_legs);
    std::vector<RunManifest> manifests(n_legs);

    const auto built = buildWorkloads(names);
    SweepExecutor sweep(benchPool());
    for (size_t w = 0; w < names.size(); ++w)
        for (int pass = 0; pass < 2; ++pass) {
            const size_t slot = w * 2 + static_cast<size_t>(pass);
            const std::string name = names[w];
            const FilterMode filter = filters[pass];
            const std::string leg = name + "_" + filterModeName(filter);
            sweep.addLeg(leg, [&, slot, name, filter](LegContext &) {
                const Workload &wl = built.at(name);
                DriverConfig cfg;
                cfg.filter = filter;
                cfg.frames = n_frames;

                auto withHost = [&](CacheSimConfig sc) {
                    sc.host = host;
                    return sc;
                };
                MultiConfigRunner runner(wl, cfg);
                runner.addSim(withHost(CacheSimConfig::pull(2 * 1024)),
                              "p2");
                runner.addSim(withHost(CacheSimConfig::pull(16 * 1024)),
                              "p16");
                runner.addSim(withHost(CacheSimConfig::twoLevel(
                                  2 * 1024, 2ull << 20)),
                              "l2_2");
                runner.addSim(withHost(CacheSimConfig::twoLevel(
                                  2 * 1024, 4ull << 20)),
                              "l2_4");
                runner.addSim(withHost(CacheSimConfig::twoLevel(
                                  2 * 1024, 8ull << 20)),
                              "l2_8");

                manifests[slot] = runner.runSupervised(
                    legResilience(resilience, "." + name + "_" +
                                                  filterModeName(filter) +
                                                  ".snap"));
                for (size_t i = 0; i < 5; ++i)
                    avgs[slot][i] = runner.averageHostBytesPerFrame(i) /
                                    (1024.0 * 1024.0);
            });
        }
    bool ok = runLegs(sweep);
    for (size_t w = 0; w < names.size(); ++w)
        for (int pass = 0; pass < 2; ++pass) {
            const size_t slot = w * 2 + static_cast<size_t>(pass);
            const std::string leg =
                names[w] + "_" + filterModeName(filters[pass]);
            reportManifest(leg, manifests[slot]);
            if (manifests[slot].outcome != RunOutcome::Completed)
                ok = false;
        }
    if (!ok)
        return 1; // partial table; checkpoints allow resuming

    CsvWriter csv(csvPath("tab03_avg_bandwidth.csv"),
                  {"workload", "filter", "config", "mb_per_frame"});
    for (size_t w = 0; w < names.size(); ++w) {
        TextTable table(
            {names[w] + " config", "BL MB/frame", "TL MB/frame"});
        for (int pass = 0; pass < 2; ++pass)
            for (size_t i = 0; i < 5; ++i)
                csv.rowStrings({names[w], filterModeName(filters[pass]),
                                config_names[i],
                                formatDouble(avgs[w * 2 +
                                                  static_cast<size_t>(
                                                      pass)][i],
                                             3)});
        for (size_t i = 0; i < 5; ++i)
            table.addRow(config_names[i],
                         {avgs[w * 2][i], avgs[w * 2 + 1][i]}, 2);
        table.print();
        std::printf("\n");
    }
    wroteCsv(csv);
    return 0;
}
