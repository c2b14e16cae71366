/**
 * @file
 * Figure 9 + Table 2: L1 miss rate by cache size (2-32 KB, 2-way,
 * 4x4 tiles, no L2) over the Village animation, and average L1 hit
 * rates for bilinear and trilinear filtering.
 *
 * Paper headline: 16 KB is nearly as good as 32 KB; even 2 KB peaks
 * below ~4% (bilinear) / ~5% (trilinear) miss rate.
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

    banner("Figure 9 / Table 2",
           "L1 miss rate by cache size (Village); average hit rates for "
           "bilinear (BL) and trilinear (TL)");

    const int n_frames = frames(48);
    const uint64_t sizes_kb[] = {2, 4, 8, 16, 32};

    TextTable table({"L1 size", "BL hit rate", "TL hit rate"});
    double bl_hit[5], tl_hit[5];
    RunManifest manifests[2];

    // One leg per filter pass on the work-stealing pool (MLTC_JOBS);
    // each leg writes its own per-filter CSV and its stdout is buffered
    // in leg order, so output is byte-identical for any worker count.
    const Workload wl = buildWorkload("village", benchPool());
    SweepExecutor sweep(benchPool());
    for (int pass = 0; pass < 2; ++pass) {
        const FilterMode filter =
            pass == 0 ? FilterMode::Bilinear : FilterMode::Trilinear;
        sweep.addLeg(filterModeName(filter),
                     [&, pass, filter](LegContext &ctx) {
            DriverConfig cfg;
            cfg.filter = filter;
            cfg.frames = n_frames;

            MultiConfigRunner runner(wl, cfg);
            for (uint64_t s : sizes_kb)
                runner.addSim(CacheSimConfig::pull(s * 1024),
                              std::to_string(s) + "KB");

            const std::string leg = std::string(filterModeName(filter));
            manifests[pass] = runner.runSupervised(
                legResilience(resilience, "." + leg + ".snap"));
            if (manifests[pass].outcome != RunOutcome::Completed)
                return;

            // Figure 9 proper is the trilinear... the paper plots both
            // bilinear and trilinear peaks; we emit one CSV per filter.
            std::string csv_name =
                std::string("fig09_l1_missrate_village_") +
                filterModeName(filter) + ".csv";
            CsvWriter csv(csvPath(csv_name),
                          {"frame", "miss_2kb", "miss_4kb", "miss_8kb",
                           "miss_16kb", "miss_32kb"});
            for (const FrameRow &row : runner.rows()) {
                std::vector<double> vals{static_cast<double>(row.frame)};
                for (const auto &sim : row.sims)
                    vals.push_back(1.0 - sim.l1HitRate());
                csv.row(vals);
            }

            for (size_t i = 0; i < 5; ++i) {
                double hit = runner.sims()[i]->totals().l1HitRate();
                (pass == 0 ? bl_hit : tl_hit)[i] = hit;
            }
            wroteCsv(ctx, csv);
        });
    }
    bool ok = runLegs(sweep);
    for (int pass = 0; pass < 2; ++pass) {
        reportManifest(pass == 0 ? "bilinear" : "trilinear",
                       manifests[pass]);
        if (manifests[pass].outcome != RunOutcome::Completed)
            ok = false;
    }
    if (!ok)
        return 1;

    for (size_t i = 0; i < 5; ++i)
        table.addRow(std::to_string(sizes_kb[i]) + " KB",
                     {bl_hit[i] * 100.0, tl_hit[i] * 100.0}, 2);
    table.print();
    std::printf("(paper Table 2 shape: hit rates rise with size and "
                "16 KB ~= 32 KB)\n\n");
    return 0;
}
