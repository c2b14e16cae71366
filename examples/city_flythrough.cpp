/**
 * @file
 * City fly-through — the paper's second workload, focused on what makes
 * it different: every building has its *own* facade texture, so the L2
 * cache must absorb inter-texture working sets, and the texture page
 * table / TLB get exercised across many tids.
 *
 * Prints per-phase statistics (high approach, low pass between towers,
 * climb out) and a TLB sweep like the paper's §5.4.3.
 *
 * Usage: city_flythrough [--frames N] [--l2-mb M] [--snapshot out.ppm]
 */
#include <cstdio>

#include "sim/multi_config_runner.hpp"
#include "util/cli.hpp"
#include "util/ppm.hpp"
#include "util/table.hpp"
#include "workload/city.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    CommandLine cli(argc, argv);
    int frames = 0;
    uint64_t l2_mb = 0;
    std::string snapshot;
    if (const int status = parseArguments([&] {
            frames = static_cast<int>(cli.getInt("frames", 60));
            l2_mb = static_cast<uint64_t>(cli.getInt("l2-mb", 2));
            snapshot = cli.getString("snapshot", "");
            cli.rejectUnread();
        }))
        return status;

    Workload wl = buildCity();
    size_t facades = 0;
    for (const auto &obj : wl.scene.objects())
        if (obj.name.rfind("building_", 0) == 0)
            ++facades;
    std::printf("City: %zu objects, %zu distinct facade textures, %s of "
                "texture\n",
                wl.scene.objects().size(), facades,
                formatBytes(static_cast<double>(
                                wl.textures->totalHostBytes()))
                    .c_str());

    DriverConfig cfg;
    cfg.filter = FilterMode::Trilinear;
    cfg.frames = frames;

    MultiConfigRunner runner(wl, cfg);
    // TLB sweep alongside the main configuration.
    const uint32_t tlb_sizes[] = {1, 4, 16};
    for (uint32_t entries : tlb_sizes) {
        CacheSimConfig sc =
            CacheSimConfig::twoLevel(2 * 1024, l2_mb << 20);
        sc.tlb_entries = entries;
        runner.addSim(sc, "tlb" + std::to_string(entries));
    }
    runner.addSim(CacheSimConfig::pull(2 * 1024), "pull");

    // Phase accounting: thirds of the animation.
    struct Phase
    {
        const char *name;
        uint64_t host = 0;
        uint64_t pull_host = 0;
        double d = 0;
        int count = 0;
    } phases[3] = {{"approach"}, {"low pass"}, {"climb out"}};

    runner.run([&](const FrameRow &row) {
        int p = std::min(row.frame * 3 / frames, 2);
        phases[p].host += row.sims[0].host_bytes;
        phases[p].pull_host += row.sims[3].host_bytes;
        phases[p].d += row.raster.depthComplexity(cfg.width, cfg.height);
        ++phases[p].count;
    });

    std::printf("\nper-phase behaviour (2KB L1 + %lluMB L2 vs pull):\n",
                static_cast<unsigned long long>(l2_mb));
    for (const auto &ph : phases) {
        double n = std::max(ph.count, 1);
        std::printf("  %-10s d=%.2f  L2 %6.2f MB/frame   pull %6.2f "
                    "MB/frame\n",
                    ph.name, ph.d / n,
                    static_cast<double>(ph.host) / n / (1 << 20),
                    static_cast<double>(ph.pull_host) / n / (1 << 20));
    }

    std::printf("\nTLB hit rates (page-table translations, §5.4.3):\n");
    for (size_t i = 0; i < 3; ++i)
        std::printf("  %2u entries: %s\n", tlb_sizes[i],
                    formatPercent(runner.sims()[i]->totals().tlbHitRate())
                        .c_str());

    if (!snapshot.empty()) {
        Rasterizer raster(1024, 768);
        raster.setFilter(FilterMode::Trilinear);
        Framebuffer fb(1024, 768);
        fb.clear(packRgba(120, 150, 200));
        raster.setFramebuffer(&fb);
        Camera cam = wl.cameraAtFrame(frames / 2, frames, 1024.0f / 768.0f);
        raster.renderFrame(wl.scene, cam, *wl.textures);
        if (writePpm(snapshot, 1024, 768, fb.colors()))
            std::printf("wrote %s\n", snapshot.c_str());
    }
    return 0;
}
