/**
 * @file
 * Extension: compressed host textures (BTC, 3 bits/texel).
 *
 * Talisman-style texture compression attacks the same bandwidth problem
 * the L2 cache does, from the other side: every host download shrinks ~10x.
 * This bench measures both levers separately and together — pull
 * vs pull+BTC vs L2 vs L2+BTC — to show they compose (compression
 * scales the download cost; the L2 removes downloads altogether).
 */
#include <optional>

#include "bench_common.hpp"
#include "sim/multi_config_runner.hpp"
#include "texture/btc.hpp"
#include "workload/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Extension: BTC-compressed host textures (3 bits/texel)",
           "Pull vs L2, each with 32-bit and BTC-compressed host "
           "storage (2KB L1, 2MB L2, trilinear)");

    const int n_frames = frames(36);

    // One leg per (workload, compression) on the work-stealing pool
    // (MLTC_JOBS); CSV rows land in leg-indexed slots and stdout is
    // buffered in leg order — byte-identical for any worker count.
    const std::vector<std::string> names = workloadNames();
    std::vector<std::vector<std::vector<std::string>>> rows(
        names.size() * 2);
    const auto built = buildWorkloads(names);
    SweepExecutor sweep(benchPool());
    for (size_t w = 0; w < names.size(); ++w)
        for (int compressed = 0; compressed < 2; ++compressed) {
            const size_t slot = w * 2 + static_cast<size_t>(compressed);
            const std::string name = names[w];
            sweep.addLeg(name + (compressed ? "_btc" : "_raw"),
                         [&, slot, name, compressed](LegContext &ctx) {
                // A BTC leg rewrites its textures' host format, so it
                // builds a private copy of the workload.
                std::optional<Workload> btc;
                if (compressed) {
                    btc = buildWorkload(name, benchPool());
                    for (TextureId t = 1;
                         t <= static_cast<TextureId>(
                                  btc->textures->textureCount());
                         ++t)
                        btc->textures->setHostBitsPerTexel(
                            t, kBtcBitsPerTexel);
                }
                const Workload &wl = btc ? *btc : built.at(name);

                DriverConfig cfg;
                cfg.filter = FilterMode::Trilinear;
                cfg.frames = n_frames;

                MultiConfigRunner runner(wl, cfg);
                runner.addSim(CacheSimConfig::pull(2 * 1024), "pull");
                runner.addSim(
                    CacheSimConfig::twoLevel(2 * 1024, 2ull << 20), "L2");
                runner.run();

                double host_mb =
                    static_cast<double>(wl.textures->totalHostBytes()) /
                    (1 << 20);
                for (size_t i = 0; i < 2; ++i) {
                    double avg = runner.averageHostBytesPerFrame(i) /
                                 (1024.0 * 1024.0);
                    std::string label =
                        std::string(i == 0 ? "pull" : "L2-2MB") +
                        (compressed ? "+BTC" : "");
                    ctx.printf("%-8s %-10s %7.3f MB/frame  (host texture "
                               "pool %.1f MB)\n",
                               name.c_str(), label.c_str(), avg, host_mb);
                    rows[slot].push_back({name, label,
                                          formatDouble(avg, 4),
                                          formatDouble(host_mb, 2)});
                }
                if (compressed)
                    ctx.printf("\n");
            });
        }
    if (!runLegs(sweep))
        return 1;

    CsvWriter csv(csvPath("ext_compressed.csv"),
                  {"workload", "config", "mb_per_frame",
                   "host_texture_mb"});
    for (const auto &leg_rows : rows)
        for (const auto &row : leg_rows)
            csv.rowStrings(row);
    std::printf("(BTC divides download cost by ~10; the L2 removes "
                "downloads — combined they compound)\n");
    wroteCsv(csv.path());
    return 0;
}
