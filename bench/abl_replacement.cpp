/**
 * @file
 * Ablation (paper §6 future work #2): L2 replacement policy — the
 * paper's clock approximation versus exact LRU, FIFO and random — at
 * 2 MB L2 / 2 KB L1, trilinear. Also reports the worst clock victim
 * search per run (the "pesky" behaviour of §5.4.2).
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

    banner("Ablation: L2 replacement policy",
           "Host bandwidth by victim-selection algorithm (2KB L1 + 2MB "
           "L2, trilinear)");

    const int n_frames = frames(36);
    const ReplacementPolicy policies[] = {
        ReplacementPolicy::Clock, ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo, ReplacementPolicy::Random};

    CsvWriter csv(csvPath("abl_replacement.csv"),
                  {"workload", "policy", "mb_per_frame", "h2full",
                   "worst_clock_steps"});

    for (const std::string &name : workloadNames()) {
        const Workload wl = buildWorkload(name, benchPool());
        DriverConfig cfg;
        cfg.filter = FilterMode::Trilinear;
        cfg.frames = n_frames;

        MultiConfigRunner runner(wl, cfg);
        for (ReplacementPolicy p : policies) {
            CacheSimConfig sc =
                CacheSimConfig::twoLevel(2 * 1024, 2ull << 20);
            sc.l2.policy = p;
            runner.addSim(sc, replacementPolicyName(p));
        }
        runner.run();

        TextTable table({name + " policy", "MB/frame", "h2full",
                         "worst victim search"});
        for (size_t i = 0; i < runner.sims().size(); ++i) {
            const auto &sim = *runner.sims()[i];
            double avg = runner.averageHostBytesPerFrame(i) /
                         (1024.0 * 1024.0);
            table.addRow({sim.label(), formatDouble(avg, 3),
                          formatPercent(sim.totals().l2FullHitRate()),
                          std::to_string(sim.totals().victim_steps_max)});
            csv.rowStrings({name, sim.label(), formatDouble(avg, 4),
                            formatDouble(sim.totals().l2FullHitRate(), 4),
                            std::to_string(sim.totals().victim_steps_max)});
        }
        table.print();
        std::printf("\n");
    }
    wroteCsv(csv.path());
    return 0;
}
