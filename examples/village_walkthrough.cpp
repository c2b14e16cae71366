/**
 * @file
 * Village walk-through — the paper's primary workload, end to end.
 *
 * Renders the scripted Village animation while simultaneously simulating
 * the three architectures the paper compares:
 *   - pull  : 2 KB L1 only, every miss downloads over AGP
 *   - L2    : 2 KB L1 + 2 MB L2 (16x16 tiles, clock replacement)
 *   - push  : oracle whole-texture residency (memory floor)
 * and prints a per-frame dashboard plus the run summary with the paper's
 * headline ratios (memory saving vs push, bandwidth saving vs pull).
 *
 * Usage: village_walkthrough [--frames N] [--filter point|bilinear|
 *        trilinear] [--snapshots DIR]
 */
#include <cstdio>
#include <string>

#include "sim/multi_config_runner.hpp"
#include "util/cli.hpp"
#include "util/ppm.hpp"
#include "util/table.hpp"
#include "workload/village.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    CommandLine cli(argc, argv);
    std::string snapshots;
    DriverConfig cfg;
    if (const int status = parseArguments([&] {
            cfg.frames = static_cast<int>(cli.getInt("frames", 60));
            cfg.filter =
                parseFilterMode(cli.getString("filter", "trilinear"));
            snapshots = cli.getString("snapshots", "");
            cli.rejectUnread();
        }))
        return status;

    Workload wl = buildVillage();
    std::printf("Village: %zu objects, %llu triangles, %s textures\n",
                wl.scene.objects().size(),
                static_cast<unsigned long long>(wl.scene.triangleCount()),
                formatBytes(static_cast<double>(
                                wl.textures->totalHostBytes()))
                    .c_str());

    MultiConfigRunner runner(wl, cfg);
    runner.addSim(CacheSimConfig::pull(2 * 1024), "pull");
    CacheSimConfig l2cfg = CacheSimConfig::twoLevel(2 * 1024, 2ull << 20);
    l2cfg.tlb_entries = 8;
    runner.addSim(l2cfg, "L2");
    runner.addWorkingSets({16}, {4});
    runner.addPushModel();

    uint64_t push_total = 0, l2_ws_total = 0;
    runner.run([&](const FrameRow &row) {
        push_total += row.push_bytes;
        l2_ws_total += row.working_sets->l2[0].bytesTouched();
        if (row.frame % 10 == 0) {
            std::printf("frame %3d: d=%.2f  pull=%7.2f MB  L2=%6.2f MB  "
                        "tlb=%s\n",
                        row.frame,
                        row.raster.depthComplexity(cfg.width, cfg.height),
                        static_cast<double>(row.sims[0].host_bytes) /
                            (1 << 20),
                        static_cast<double>(row.sims[1].host_bytes) /
                            (1 << 20),
                        formatPercent(row.sims[1].tlbHitRate()).c_str());
        }
    });

    const double n = static_cast<double>(runner.rows().size());
    const CacheFrameStats &pull = runner.sims()[0]->totals();
    const CacheFrameStats &l2 = runner.sims()[1]->totals();

    double pull_mb = static_cast<double>(pull.host_bytes) / n / (1 << 20);
    double l2_mb = static_cast<double>(l2.host_bytes) / n / (1 << 20);
    double push_avg_mb = static_cast<double>(push_total) / n / (1 << 20);
    double ws_avg_mb = static_cast<double>(l2_ws_total) / n / (1 << 20);

    std::printf("\n=== summary over %.0f frames (%s filtering) ===\n", n,
                filterModeName(cfg.filter));
    std::printf("L1 hit rate            %s\n",
                formatPercent(l2.l1HitRate(), 2).c_str());
    std::printf("L2 full/partial hits   %s / %s of L1 misses\n",
                formatPercent(l2.l2FullHitRate()).c_str(),
                formatPercent(l2.l2PartialHitRate()).c_str());
    std::printf("pull bandwidth         %.2f MB/frame (%.0f MB/s @30Hz)\n",
                pull_mb, pull_mb * 30);
    std::printf("L2 bandwidth           %.2f MB/frame (%.0f MB/s @30Hz)\n",
                l2_mb, l2_mb * 30);
    std::printf("bandwidth saving       %.1fx (paper: 5x-18x for 2MB L2)\n",
                pull_mb / l2_mb);
    std::printf("push memory (oracle)   %.2f MB/frame\n", push_avg_mb);
    std::printf("L2 working set         %.2f MB/frame -> %.1fx less local "
                "memory (paper: 3x-5x)\n",
                ws_avg_mb, push_avg_mb / ws_avg_mb);

    if (!snapshots.empty()) {
        // Re-render a few frames with shading for Figure-12 style stills.
        Rasterizer raster(1024, 768);
        raster.setFilter(cfg.filter);
        Framebuffer fb(1024, 768);
        raster.setFramebuffer(&fb);
        for (int i = 0; i < 4; ++i) {
            int f = i * (cfg.frames - 1) / 3;
            fb.clear(packRgba(40, 60, 90));
            Camera cam = wl.cameraAtFrame(f, cfg.frames, 1024.0f / 768.0f);
            raster.renderFrame(wl.scene, cam, *wl.textures);
            std::string path = snapshots + "/village_" +
                               std::to_string(f) + ".ppm";
            if (writePpm(path, 1024, 768, fb.colors()))
                std::printf("wrote %s\n", path.c_str());
        }
    }
    return 0;
}
