/**
 * @file
 * Ablation (paper §5.1): fully-associative page-table L2 versus the
 * rejected set-associative organisation at the same capacity. The paper
 * argues inter-texture collisions make direct-mapped/set-associative L2
 * caches hard to hash well; this bench quantifies the penalty.
 */
#include "bench_common.hpp"
#include "core/set_assoc_l2.hpp"
#include "sim/multi_config_runner.hpp"
#include "workload/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Ablation: L2 associativity",
           "Fully-associative (page table + clock) vs 1/2/4-way "
           "set-associative L2 at 2MB (2KB L1, trilinear)");

    const int n_frames = frames(36);
    CsvWriter csv(csvPath("abl_set_assoc_l2.csv"),
                  {"workload", "organisation", "mb_per_frame", "h2full"});

    for (const std::string &name : workloadNames()) {
        const Workload wl = buildWorkload(name, benchPool());
        DriverConfig cfg;
        cfg.filter = FilterMode::Trilinear;
        cfg.frames = n_frames;

        MultiConfigRunner runner(wl, cfg);
        runner.addSim(CacheSimConfig::twoLevel(2 * 1024, 2ull << 20),
                      "full-assoc");

        std::vector<std::unique_ptr<SetAssocL2Sim>> sa_sims;
        for (uint32_t ways : {1u, 2u, 4u}) {
            SetAssocL2Config sc;
            sc.l1.size_bytes = 2 * 1024;
            sc.l2_size_bytes = 2ull << 20;
            sc.l2_assoc = ways;
            sa_sims.push_back(std::make_unique<SetAssocL2Sim>(
                *wl.textures, sc, std::to_string(ways) + "-way"));
            runner.addExtraSink(sa_sims.back().get());
        }
        runner.run([&](const FrameRow &) {
            for (auto &s : sa_sims)
                s->endFrame();
        });

        TextTable table({name + " L2 organisation", "MB/frame", "h2full"});
        double fa = runner.averageHostBytesPerFrame(0) / (1024.0 * 1024.0);
        table.addRow({"full-assoc (paper)", formatDouble(fa, 3),
                      formatPercent(
                          runner.sims()[0]->totals().l2FullHitRate())});
        csv.rowStrings({name, "full-assoc", formatDouble(fa, 4),
                        formatDouble(
                            runner.sims()[0]->totals().l2FullHitRate(), 4)});
        double n = static_cast<double>(runner.rows().size());
        for (auto &s : sa_sims) {
            double avg =
                static_cast<double>(s->totals().host_bytes) / n /
                (1024.0 * 1024.0);
            table.addRow({s->label(), formatDouble(avg, 3),
                          formatPercent(s->totals().l2FullHitRate())});
            csv.rowStrings({name, s->label(), formatDouble(avg, 4),
                            formatDouble(s->totals().l2FullHitRate(), 4)});
        }
        table.print();
        std::printf("\n");
    }
    wroteCsv(csv.path());
    return 0;
}
