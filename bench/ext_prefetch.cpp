/**
 * @file
 * Extension: sector prefetching in the L2.
 *
 * The paper's sector mapping fetches only the demanded L1 sub-block,
 * matching the pull architecture's bandwidth floor; Hakura observed
 * that fetching neighbours cuts miss rate but raises bandwidth. This
 * bench quantifies that trade-off in the L2: demand-only vs
 * adjacent-sector vs whole-block filling.
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

    banner("Extension: L2 sector prefetch",
           "Demand-only (paper) vs adjacent-sector vs whole-block fill "
           "(2KB L1 + 2MB L2, trilinear)");

    const int n_frames = frames(36);
    const PrefetchPolicy policies[] = {PrefetchPolicy::None,
                                       PrefetchPolicy::AdjacentSector,
                                       PrefetchPolicy::WholeBlock};

    // One leg per workload on the work-stealing pool (MLTC_JOBS),
    // keeping the three-policy sim fanout per leg; tables stream
    // through the ordered leg buffers and CSV rows land in leg-indexed
    // slots — byte-identical for any worker count.
    const std::vector<std::string> names = workloadNames();
    std::vector<std::vector<std::vector<std::string>>> csv_rows(
        names.size());
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
            for (PrefetchPolicy p : policies) {
                CacheSimConfig sc =
                    CacheSimConfig::twoLevel(2 * 1024, 2ull << 20);
                sc.l2.prefetch = p;
                runner.addSim(sc, prefetchPolicyName(p));
            }
            runner.run();

            TextTable table({name + " prefetch", "MB/frame", "h2full",
                             "partial rate", "prefetch accuracy"});
            for (size_t i = 0; i < runner.sims().size(); ++i) {
                const CacheSim &sim = *runner.sims()[i];
                const L2Stats &l2 = sim.l2()->stats();
                double accuracy =
                    l2.prefetch_sectors
                        ? static_cast<double>(l2.prefetch_useful) /
                              static_cast<double>(l2.prefetch_sectors)
                        : 0.0;
                double avg = runner.averageHostBytesPerFrame(i) /
                             (1024.0 * 1024.0);
                table.addRow(
                    {sim.label(), formatDouble(avg, 3),
                     formatPercent(sim.totals().l2FullHitRate()),
                     formatPercent(sim.totals().l2PartialHitRate()),
                     l2.prefetch_sectors ? formatPercent(accuracy) : "-"});
                csv_rows[w].push_back(
                    {name, sim.label(), formatDouble(avg, 4),
                     formatDouble(sim.totals().l2FullHitRate(), 4),
                     formatDouble(accuracy, 4)});
            }
            ctx.write(table.render());
            ctx.printf("\n");
        });
    }
    if (!runLegs(sweep))
        return 1;

    CsvWriter csv(csvPath("ext_prefetch.csv"),
                  {"workload", "policy", "mb_per_frame", "h2full",
                   "prefetch_accuracy"});
    for (const auto &leg_rows : csv_rows)
        for (const auto &row : leg_rows)
            csv.rowStrings(row);
    std::printf("(prefetching trades host bandwidth for L2 hit rate; the "
                "paper's demand fetch is the bandwidth floor)\n");
    wroteCsv(csv.path());
    return 0;
}
