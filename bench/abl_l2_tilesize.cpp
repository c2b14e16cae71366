/**
 * @file
 * Ablation: L2 tile size (8x8 / 16x16 / 32x32) at fixed 2 MB capacity.
 * Larger tiles cut page-table size but waste capacity on unused sectors;
 * the paper settles on 16x16 (§4.2: "16x16 L2 tiles do not require
 * significantly more memory than 8x8 but provide some savings over
 * 32x32").
 */
#include "bench_common.hpp"
#include "model/structure_size_model.hpp"
#include "sim/multi_config_runner.hpp"
#include "workload/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Ablation: L2 tile size",
           "Bandwidth and page-table cost by L2 tile size (2KB L1 + 2MB "
           "L2, trilinear)");

    const int n_frames = frames(36);
    const uint32_t tiles[] = {8, 16, 32};
    CsvWriter csv(csvPath("abl_l2_tilesize.csv"),
                  {"workload", "l2_tile", "mb_per_frame", "h2full",
                   "page_table_kb_per_32mb"});

    for (const std::string &name : workloadNames()) {
        const Workload wl = buildWorkload(name, benchPool());
        DriverConfig cfg;
        cfg.filter = FilterMode::Trilinear;
        cfg.frames = n_frames;

        MultiConfigRunner runner(wl, cfg);
        for (uint32_t t : tiles)
            runner.addSim(
                CacheSimConfig::twoLevel(2 * 1024, 2ull << 20, t),
                std::to_string(t) + "x" + std::to_string(t));
        runner.run();

        TextTable table({name + " L2 tile", "MB/frame", "h2full",
                         "t_table KB / 32MB host"});
        for (size_t i = 0; i < 3; ++i) {
            StructureSizeParams p;
            p.l2_tile = tiles[i];
            StructureSizes s = computeStructureSizes(p);
            double avg = runner.averageHostBytesPerFrame(i) /
                         (1024.0 * 1024.0);
            double pt_kb = static_cast<double>(s.page_table_bytes) / 1024.0;
            const auto &sim = *runner.sims()[i];
            table.addRow({sim.label(), formatDouble(avg, 3),
                          formatPercent(sim.totals().l2FullHitRate()),
                          formatDouble(pt_kb, 0)});
            csv.rowStrings({name, std::to_string(tiles[i]),
                            formatDouble(avg, 4),
                            formatDouble(sim.totals().l2FullHitRate(), 4),
                            formatDouble(pt_kb, 1)});
        }
        table.print();
        std::printf("\n");
    }
    wroteCsv(csv.path());
    return 0;
}
