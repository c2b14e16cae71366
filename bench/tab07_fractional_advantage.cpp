/**
 * @file
 * Table 7: fractional advantage f of the L2 caching architecture — the
 * ratio of the L2 architecture's average cost on an L1 miss to the pull
 * architecture's — computed from measured hit rates via the §5.4.2
 * model, with the full-miss cost bounded at c = 8 (and a sweep over c).
 *
 * f < 1 everywhere means L2 caching beats the pull architecture even
 * when a full L2 miss costs 8x an L1 download.
 */
#include "bench_common.hpp"
#include "model/performance_model.hpp"
#include "sim/multi_config_runner.hpp"
#include "workload/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Table 7",
           "Fractional advantage f of L2 caching (2KB L1 + 2MB L2, c = "
           "t2miss/t3); f<1 means L2 wins");

    const int n_frames = frames(36);

    // One leg per (workload, filter) on the work-stealing pool
    // (MLTC_JOBS): legs store measured rates into leg-indexed slots;
    // the model evaluation, table and CSV happen after the sweep in
    // leg order — byte-identical output for any worker count.
    const std::vector<std::string> names = workloadNames();
    const FilterMode filters[] = {FilterMode::Bilinear,
                                  FilterMode::Trilinear};
    std::vector<PerformanceInputs> inputs(names.size() * 2);
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
                             inputs[slot].l1_hit_rate = t.l1HitRate();
                             inputs[slot].l2_full_hit_rate =
                                 t.l2FullHitRate();
                             inputs[slot].l2_partial_hit_rate =
                                 t.l2PartialHitRate();
                         });
        }
    if (!runLegs(sweep))
        return 1;

    CsvWriter csv(csvPath("tab07_fractional_advantage.csv"),
                  {"workload", "filter", "c", "f", "speedup"});
    TextTable table({"workload / filter", "f (c=2)", "f (c=4)", "f (c=8)",
                     "speedup (c=8)"});
    for (size_t w = 0; w < names.size(); ++w)
        for (int pass = 0; pass < 2; ++pass) {
            PerformanceInputs in =
                inputs[w * 2 + static_cast<size_t>(pass)];
            std::vector<double> row;
            for (double c : {2.0, 4.0, 8.0}) {
                in.full_miss_cost = c;
                double f = fractionalAdvantage(in);
                row.push_back(f);
                csv.rowStrings({names[w], filterModeName(filters[pass]),
                                formatDouble(c, 0), formatDouble(f, 4),
                                formatDouble(l2Speedup(in), 3)});
            }
            in.full_miss_cost = 8.0;
            row.push_back(l2Speedup(in));
            table.addRow(names[w] + " / " +
                             filterModeName(filters[pass]),
                         row, 3);
        }
    table.print();
    wroteCsv(csv.path());
    return 0;
}
