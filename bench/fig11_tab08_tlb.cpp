/**
 * @file
 * Figure 11 + Table 8: texture page table TLB hit rates as a function of
 * TLB entries (1-16, round-robin), with a 2 KB L1 and 2 MB L2 of 16x16
 * tiles. Figure 11 plots the Village trilinear per-frame curve; Table 8
 * gives bilinear averages for both workloads.
 *
 * Paper averages (bilinear): ~36/63/74/81/91% for 1/2/4/8/16 entries.
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

    banner("Figure 11 / Table 8",
           "Texture page table TLB hit rates vs entries (2KB L1, 2MB L2, "
           "16x16 tiles, round-robin)");

    const int n_frames = frames(36);
    const uint32_t entry_counts[] = {1, 2, 4, 8, 16};

    // Three independent legs on the work-stealing pool (MLTC_JOBS):
    // the Figure 11 per-frame run and one Table 8 run per workload.
    // Leg-ordered buffered stdout and leg-indexed result slots keep the
    // output byte-identical for any worker count.
    double rates[5][2];
    const std::vector<std::string> names = workloadNames();
    const auto built = buildWorkloads(names);
    SweepExecutor sweep(benchPool());

    // --- Figure 11: Village, trilinear, per-frame curves ---------------
    sweep.addLeg("fig11_village_trilinear", [&](LegContext &ctx) {
        const Workload &wl = built.at("village");
        DriverConfig cfg;
        cfg.filter = FilterMode::Trilinear;
        cfg.frames = n_frames;

        MultiConfigRunner runner(wl, cfg);
        for (uint32_t e : entry_counts) {
            CacheSimConfig sc =
                CacheSimConfig::twoLevel(2 * 1024, 2ull << 20);
            sc.tlb_entries = e;
            runner.addSim(sc, std::to_string(e) + "-entry");
        }
        CsvWriter csv(csvPath("fig11_tlb_village.csv"),
                      {"frame", "tlb_1", "tlb_2", "tlb_4", "tlb_8",
                       "tlb_16"});
        runner.run([&](const FrameRow &row) {
            std::vector<double> vals{static_cast<double>(row.frame)};
            for (const auto &sim : row.sims)
                vals.push_back(sim.tlbHitRate());
            csv.row(vals);
        });
        wroteCsv(ctx, csv);
    });

    // --- Table 8: both workloads, bilinear, averages --------------------
    for (size_t col = 0; col < names.size(); ++col) {
        const std::string name = names[col];
        sweep.addLeg("tab08_" + name, [&, col, name](LegContext &) {
            const Workload &wl = built.at(name);
            DriverConfig cfg;
            cfg.filter = FilterMode::Bilinear;
            cfg.frames = n_frames;

            MultiConfigRunner runner(wl, cfg);
            for (uint32_t e : entry_counts) {
                CacheSimConfig sc =
                    CacheSimConfig::twoLevel(2 * 1024, 2ull << 20);
                sc.tlb_entries = e;
                runner.addSim(sc, std::to_string(e));
            }
            runner.run();
            for (size_t i = 0; i < 5; ++i)
                rates[i][col] = runner.sims()[i]->totals().tlbHitRate();
        });
    }
    if (!runLegs(sweep))
        return 1;

    TextTable table({"# TLB entries", "Village hit rate", "City hit rate"});
    for (size_t i = 0; i < 5; ++i)
        table.addRow(std::to_string(entry_counts[i]),
                     {rates[i][0] * 100.0, rates[i][1] * 100.0}, 1);
    table.print();
    std::printf("(paper: ~36%% / 63%% / 74%% / 81%% / 91%% for "
                "1/2/4/8/16 entries)\n\n");
    return 0;
}
