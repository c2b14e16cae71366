/**
 * @file
 * Extension: host-path fault tolerance sweep.
 *
 * The paper assumes the AGP/host channel never fails; a production
 * system must survive drops, latency spikes and corrupted sectors.
 * This bench drives the Village and City workloads against the
 * fault-injectable host backend over a range of fault rates and plots
 * degraded-quality vs fault-rate: retries, failed fetches, accesses
 * served from a coarser resident MIP level, and the mean MIP bias those
 * degraded accesses suffered. The scenario is seeded: two runs with the
 * same seed produce identical CSVs.
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

    banner("Extension: host-path fault tolerance",
           "Seeded fault sweep: degraded quality vs host fault rate "
           "(2KB L1 + 2MB L2, trilinear, retry/backoff + MIP fallback)");

    const int n_frames = frames(12);
    const double rates[] = {0.0, 0.01, 0.05, 0.1, 0.2, 0.4};
    const uint64_t seed = 42;

    // One leg per workload on the work-stealing pool (MLTC_JOBS): each
    // leg keeps its six-fault-rate sim fanout (one rasterization pass),
    // prints its table through the ordered leg buffer and stores CSV
    // rows in a leg-indexed slot — byte-identical for any worker count.
    const std::vector<std::string> names = {"village", "city"};
    std::vector<std::vector<std::vector<std::string>>> csv_rows(
        names.size());
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
            for (double rate : rates) {
                CacheSimConfig sc =
                    CacheSimConfig::twoLevel(2 * 1024, 2ull << 20);
                sc.host.fault_injection = true;
                sc.host.faults.seed = seed;
                sc.host.faults.drop_rate = rate;
                sc.host.faults.corrupt_rate = rate / 2.0;
                sc.host.faults.spike_rate = rate / 2.0;
                runner.addSim(sc, formatPercent(rate, 0) + " faults");
            }
            manifests[w] = runner.runSupervised(
                legResilience(resilience, "." + name + ".snap"));
            if (manifests[w].outcome != RunOutcome::Completed)
                return;

            TextTable table({name + " fault rate", "retries",
                             "retry-exhausted", "failures", "degraded",
                             "hard", "mip bias", "MB/frame"});
            for (size_t i = 0; i < runner.sims().size(); ++i) {
                const CacheSim &sim = *runner.sims()[i];
                const CacheFrameStats &t = sim.totals();
                const uint64_t hard =
                    t.host_failures - t.degraded_accesses;
                // The host path's own request ledger, not the frame
                // counters: requests whose whole retry/backoff budget
                // was consumed.
                const uint64_t exhausted =
                    sim.hostPath() ? sim.hostPath()->stats().failures : 0;
                const double mbpf = runner.averageHostBytesPerFrame(i) /
                                    (1024.0 * 1024.0);
                table.addRow({sim.label(), std::to_string(t.host_retries),
                              std::to_string(exhausted),
                              std::to_string(t.host_failures),
                              std::to_string(t.degraded_accesses),
                              std::to_string(hard),
                              formatDouble(t.meanDegradedMipBias(), 3),
                              formatDouble(mbpf, 3)});
                csv_rows[w].push_back(
                    {name, formatDouble(rates[i], 4),
                     std::to_string(t.host_retries),
                     std::to_string(exhausted),
                     std::to_string(t.host_failures),
                     std::to_string(t.degraded_accesses),
                     std::to_string(hard),
                     formatDouble(t.meanDegradedMipBias(), 4),
                     formatDouble(mbpf, 4)});
            }
            ctx.write(table.render());
            ctx.printf("\n");
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

    CsvWriter csv(csvPath("ext_fault_tolerance.csv"),
                  {"workload", "fault_rate", "host_retries",
                   "retry_exhausted", "host_failures", "degraded_accesses",
                   "hard_failures", "mean_mip_bias", "host_mb_per_frame"});
    for (const auto &leg_rows : csv_rows)
        for (const auto &row : leg_rows)
            csv.rowStrings(row);
    std::printf("(degradation = access served from a coarser resident MIP "
                "after retry exhaustion; hard = nothing coarser was "
                "resident either. Same seed => identical CSV.)\n");
    wroteCsv(csv);
    return 0;
}
