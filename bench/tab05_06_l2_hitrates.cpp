/**
 * @file
 * Tables 5 and 6: measured L1 hit rate and conditional L2 full/partial
 * hit rates (given an L1 miss) for the Village and City under bilinear
 * and trilinear filtering — 2 KB L1, 2 MB L2 of 16x16 tiles. These
 * rates feed the §5.4.2 performance model (Table 7).
 */
#include <vector>

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

    banner("Tables 5/6",
           "L1 hit rate and conditional L2 hit rates (2KB L1, 2MB L2, "
           "16x16 tiles)");

    const int n_frames = frames(36);

    // One leg per (workload, filter), run on the work-stealing pool
    // (MLTC_JOBS); rates land in leg-indexed slots and the CSV/tables
    // are rendered after the sweep in leg order, byte-identical for any
    // worker count (docs/parallelism.md).
    const std::vector<std::string> names = workloadNames();
    const FilterMode filters[] = {FilterMode::Bilinear,
                                  FilterMode::Trilinear};
    struct Rates
    {
        double h1 = 0, h2f = 0, h2p = 0;
    };
    std::vector<Rates> rates(names.size() * 2);

    const auto built = buildWorkloads(names);
    SweepExecutor sweep(benchPool());
    for (size_t w = 0; w < names.size(); ++w)
        for (int pass = 0; pass < 2; ++pass) {
            const size_t slot = w * 2 + static_cast<size_t>(pass);
            const std::string name = names[w];
            const FilterMode filter = filters[pass];
            sweep.addLeg(name + "_" + filterModeName(filter),
                         [&, slot, name, filter](LegContext &) {
                             const Workload &wl = built.at(name);
                             DriverConfig cfg;
                             cfg.filter = filter;
                             cfg.frames = n_frames;

                             MultiConfigRunner runner(wl, cfg);
                             runner.addSim(CacheSimConfig::twoLevel(
                                               2 * 1024, 2ull << 20),
                                           "2KB+2MB");
                             runner.run();

                             const CacheFrameStats &t =
                                 runner.sims()[0]->totals();
                             rates[slot] = {t.l1HitRate(),
                                            t.l2FullHitRate(),
                                            t.l2PartialHitRate()};
                         });
        }
    if (!runLegs(sweep))
        return 1;

    CsvWriter csv(csvPath("tab05_06_l2_hitrates.csv"),
                  {"workload", "filter", "h1", "h2full", "h2partial"});
    for (size_t w = 0; w < names.size(); ++w) {
        TextTable table({names[w] + " rate", "BL", "TL"});
        const Rates &bl = rates[w * 2];
        const Rates &tl = rates[w * 2 + 1];
        for (int pass = 0; pass < 2; ++pass) {
            const Rates &r = pass == 0 ? bl : tl;
            csv.rowStrings({names[w], filterModeName(filters[pass]),
                            formatDouble(r.h1, 4), formatDouble(r.h2f, 4),
                            formatDouble(r.h2p, 4)});
        }
        table.addRow("L1 hit rate h1", {bl.h1 * 100, tl.h1 * 100}, 2);
        table.addRow("L2 full hit h2full | L1 miss",
                     {bl.h2f * 100, tl.h2f * 100}, 2);
        table.addRow("L2 partial hit h2partial | L1 miss",
                     {bl.h2p * 100, tl.h2p * 100}, 2);
        table.print();
        std::printf("\n");
    }
    std::printf("(inclusion is not maintained between L1 and L2, so these "
                "are conditional rates — paper footnote 5)\n");
    wroteCsv(csv.path());
    return 0;
}
