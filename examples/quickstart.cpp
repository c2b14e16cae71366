/**
 * @file
 * Quickstart: build a workload, render a few frames through the
 * two-level texture cache, and print what happened.
 *
 * This walks the whole public API surface in ~60 lines:
 *   1. build a procedural workload (scene + textures + camera script)
 *   2. attach a CacheSim (16 KB L1 + 4 MB L2, the paper's architecture)
 *   3. rasterize frames; the access stream drives the cache simulator
 *   4. read the per-frame and cumulative statistics
 *
 * Usage: quickstart [--workload village|city] [--frames N]
 *                   [--snapshot out.ppm]
 */
#include <cstdio>

#include "core/cache_sim.hpp"
#include "raster/framebuffer.hpp"
#include "raster/rasterizer.hpp"
#include "util/cli.hpp"
#include "util/ppm.hpp"
#include "util/table.hpp"
#include "workload/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    CommandLine cli(argc, argv);
    std::string name, snapshot;
    int frames = 0;
    if (const int status = parseArguments([&] {
            name = cli.getString("workload", "village");
            checkWorkloadName(name);
            frames = static_cast<int>(cli.getInt("frames", 16));
            snapshot = cli.getString("snapshot", "");
            cli.rejectUnread();
        }))
        return status;

    Workload wl = buildWorkload(name);
    std::printf("workload '%s': %zu objects, %llu triangles, %zu textures "
                "(%s in host memory)\n",
                wl.name.c_str(), wl.scene.objects().size(),
                static_cast<unsigned long long>(wl.scene.triangleCount()),
                wl.textures->textureCount(),
                formatBytes(static_cast<double>(
                                wl.textures->totalHostBytes()))
                    .c_str());

    // The paper's proposed architecture: small on-chip L1 backed by an
    // L2 in local DRAM, textures pulled from host memory by sector.
    CacheSim sim(*wl.textures,
                 CacheSimConfig::twoLevel(16 * 1024, 4ull << 20), "L2-arch");

    Rasterizer raster(1024, 768);
    raster.setFilter(FilterMode::Trilinear);
    raster.setSink(&sim);

    Framebuffer fb(1024, 768);
    for (int f = 0; f < frames; ++f) {
        // Attach the framebuffer only for the frame we snapshot; shading
        // costs time and the simulator does not need it.
        bool shade = !snapshot.empty() && f == frames - 1;
        raster.setFramebuffer(shade ? &fb : nullptr);
        if (shade)
            fb.clear(packRgba(40, 60, 90));

        Camera cam = wl.cameraAtFrame(f, frames, 1024.0f / 768.0f);
        FrameStats fs = raster.renderFrame(wl.scene, cam, *wl.textures);
        CacheFrameStats cs = sim.endFrame();

        std::printf("frame %3d: d=%.2f  accesses=%llu  L1 hit=%s  "
                    "host download=%s\n",
                    f, fs.depthComplexity(1024, 768),
                    static_cast<unsigned long long>(cs.accesses),
                    formatPercent(cs.l1HitRate()).c_str(),
                    formatBytes(static_cast<double>(cs.host_bytes)).c_str());
    }

    const CacheFrameStats &t = sim.totals();
    std::printf("\ntotals over %u frames:\n", sim.frames());
    std::printf("  L1 hit rate        %s\n",
                formatPercent(t.l1HitRate()).c_str());
    std::printf("  L2 full-hit rate   %s (of L1 misses)\n",
                formatPercent(t.l2FullHitRate()).c_str());
    std::printf("  L2 partial rate    %s (of L1 misses)\n",
                formatPercent(t.l2PartialHitRate()).c_str());
    std::printf("  host bandwidth     %s/frame\n",
                formatBytes(static_cast<double>(t.host_bytes) /
                            sim.frames())
                    .c_str());
    std::printf("  L2 local reads     %s/frame\n",
                formatBytes(static_cast<double>(t.l2_read_bytes) /
                            sim.frames())
                    .c_str());

    if (!snapshot.empty()) {
        if (writePpm(snapshot, 1024, 768, fb.colors()))
            std::printf("wrote %s\n", snapshot.c_str());
        else
            std::printf("failed to write %s\n", snapshot.c_str());
    }
    return 0;
}
