/**
 * @file
 * Extension: multi-texturing (detail layers).
 *
 * The paper's §4 names multi-texture hardware as a growing source of
 * intra-frame texture locality. This bench attaches a shared detail
 * layer to the Village's large surfaces (ground, streets, hills) —
 * rendered as the era-accurate second pass — and measures what the
 * extra texture layer costs each architecture. The detail texture is
 * shared across objects and heavily tiled, so the L2 absorbs almost
 * all of its traffic.
 */
#include <optional>

#include "bench_common.hpp"
#include "sim/multi_config_runner.hpp"
#include "texture/procedural.hpp"
#include "workload/village.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Extension: multitexturing (detail layer, two-pass)",
           "Village with a shared detail texture on its large surfaces "
           "(2KB L1, 2MB L2, trilinear)");

    const int n_frames = frames(36);

    // One leg per configuration on the work-stealing pool (MLTC_JOBS);
    // CSV rows land in leg-indexed slots and stdout is buffered in leg
    // order — byte-identical for any worker count.
    std::vector<std::vector<std::string>> rows(2);
    const Workload village = buildVillage({}, benchPool());
    SweepExecutor sweep(benchPool());
    for (int with_detail = 0; with_detail < 2; ++with_detail) {
        const char *label =
            with_detail ? "base + detail layer" : "single texture";
        sweep.addLeg(label, [&, with_detail, label](LegContext &ctx) {
            // The detail leg adds a texture and rewrites scene objects,
            // so it builds a private copy of the Village.
            std::optional<Workload> detailed;
            if (with_detail) {
                detailed = buildVillage({}, benchPool());
                TextureId noise = detailed->textures->load(
                    "detail_noise", MipPyramid(makeDirt(256, 0x0e7a11)));
                for (size_t i = 0; i < detailed->scene.objects().size();
                     ++i) {
                    SceneObject &obj = detailed->scene.object(i);
                    if (obj.name == "ground" ||
                        obj.name.rfind("street", 0) == 0 ||
                        obj.name.rfind("hill", 0) == 0 ||
                        obj.name.rfind("meadow", 0) == 0) {
                        obj.detail_texture = noise;
                        obj.detail_uv_scale = 16.0f;
                    }
                }
            }
            const Workload &wl = detailed ? *detailed : village;

            DriverConfig cfg;
            cfg.filter = FilterMode::Trilinear;
            cfg.frames = n_frames;

            MultiConfigRunner runner(wl, cfg);
            runner.addSim(CacheSimConfig::pull(2 * 1024), "pull");
            runner.addSim(CacheSimConfig::twoLevel(2 * 1024, 2ull << 20),
                          "L2");
            runner.run();

            double d = 0;
            for (const auto &row : runner.rows())
                d += row.raster.depthComplexity(cfg.width, cfg.height);
            d /= static_cast<double>(runner.rows().size());
            double pull = runner.averageHostBytesPerFrame(0) / (1 << 20);
            double l2 = runner.averageHostBytesPerFrame(1) / (1 << 20);

            ctx.printf("%-20s d=%.2f  pull %6.2f MB/frame  L2 %5.2f "
                       "MB/frame\n",
                       label, d, pull, l2);
            rows[static_cast<size_t>(with_detail)] = {
                label, formatDouble(d, 3), formatDouble(pull, 3),
                formatDouble(l2, 3)};
        });
    }
    if (!runLegs(sweep))
        return 1;

    CsvWriter csv(csvPath("ext_multitexture.csv"),
                  {"config", "d", "pull_mb_per_frame",
                   "l2_mb_per_frame"});
    for (const auto &row : rows)
        csv.rowStrings(row);
    std::printf("(the shared, tiled detail layer adds texturing work but "
                "almost no L2 bandwidth — intra-frame locality absorbs "
                "it, as §4 argues)\n\n");
    wroteCsv(csv.path());
    return 0;
}
