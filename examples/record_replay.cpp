/**
 * @file
 * Trace-driven simulation: record a short clip's texel access stream to
 * disk, then replay it into several cache configurations without
 * re-rasterizing — the methodology of classic trace-driven cache
 * studies (and of the paper itself, §3.3).
 *
 * Usage: record_replay [--workload village|city|terrain] [--frames N]
 *        [--trace path.bin] [--keep] [--jobs N]
 *        [--faults | --fault-drop R --fault-corrupt R ... --retry-max N]
 *        [--audit off|cheap|full] [--checkpoint base [--resume]]
 *        [--mrc [--mrc-out BASE] [--heatmap-out BASE]
 *         [--mrc-sample-rate R]]
 *        [--telemetry-port P [--telemetry-port-file F]]
 *        [--trace-out T.json] [--flight-out PREFIX]
 *        [--profile-out PREFIX [--profile-hz N] [--profile-no-counters]]
 *
 * With --profile-out the sampling stage profiler (docs/profiling.md)
 * covers both phases: record-time raster/sampler stages and replay-time
 * per-leg "leg:<config>" roots land in PREFIX.folded / PREFIX.json.
 *
 * With --telemetry-port the whole record+replay pipeline serves live
 * /metrics, /healthz and /runz (per-leg sweep status) on 127.0.0.1 —
 * scraping never perturbs the recorded or replayed bytes.
 *
 * Recording is a single pass; the replays are independent legs run on
 * the work-stealing pool (--jobs, default MLTC_JOBS env or hardware
 * concurrency — see docs/parallelism.md). Each leg opens its own
 * TraceReader over the recorded clip and replays into its own workload
 * and simulator, so output is byte-identical for any worker count.
 *
 * With --mrc every replayed configuration carries a reuse-distance
 * profiler; per-candidate outputs are written to `BASE.<config>` bases.
 * Replayed traces carry no pixel positions, so the screen-space heatmap
 * is absent here (texture-space maps and MRCs are unaffected).
 *
 * With a fault scenario enabled (see host/host_cli.hpp) the replayed
 * configurations run over the fault-injectable host backend and report
 * retries and MIP-degraded accesses per configuration.
 *
 * Every replayed simulator is audited at frame boundaries (--audit,
 * default cheap). With --checkpoint=BASE each configuration's full
 * simulator state is snapshot to `BASE.<config>.snap` after the replay;
 * with --resume it is restored from there first, so a clip can be
 * replayed in warm-cache sessions across process restarts — the direct
 * CacheSim save/load path under the runner-level machinery.
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_sim.hpp"
#include "host/host_cli.hpp"
#include "obs/observability.hpp"
#include "obs/reuse_profiler.hpp"
#include "sim/animation_driver.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/resilience.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/serializer.hpp"
#include "util/table.hpp"
#include "workload/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace mltc;
    CommandLine cli(argc, argv);
    try {
        installIoFaultsFromCli(cli); // --io-faults=eio=R,...,seed=S
    } catch (const Exception &e) {
        std::fprintf(stderr, "%s\n", e.error().describe().c_str());
        return 1;
    }
    const std::string name = cli.getString("workload", "village");
    const int frames = static_cast<int>(cli.getInt("frames", 8));
    const std::string path = cli.getString("trace", "/tmp/mltc_clip.bin");
    const ResilienceConfig resilience = resilienceFromCli(cli);
    const unsigned jobs = jobsFromCli(cli);

    // Telemetry plane: one process-wide bundle (HTTP server, shared
    // tracer, flight recorder). Per-leg metrics JSONL is not merged
    // here, so keep the registry driven by the sweep status only.
    ObsConfig obs_cfg;
    std::unique_ptr<Observability> obs;
    try {
        obs_cfg = obsFromCli(cli);
        obs_cfg.metrics_path.clear();
        if (obs_cfg.anyEnabled())
            obs = std::make_unique<Observability>(obs_cfg);
    } catch (const Exception &e) {
        std::fprintf(stderr, "%s\n", e.error().describe().c_str());
        return 1;
    }

    // --- Record ---------------------------------------------------------
    {
        if (obs && obs->telemetry())
            obs->telemetry()->publishHealth(
                "{\"status\":\"recording\"}");
        Workload wl = buildWorkload(name);
        std::printf("recording %d frames of '%s' to %s...\n", frames,
                    name.c_str(), path.c_str());
        TraceWriter writer(path);
        DriverConfig cfg;
        cfg.filter = FilterMode::Bilinear;
        cfg.frames = frames;
        runAnimation(wl, cfg, &writer,
                     [&](int, const FrameStats &) { writer.endFrame(); });
        writer.close(); // fails loudly on a truncated trace
    }

    // --- Replay into several configurations ------------------------------
    struct Candidate
    {
        const char *label;
        const char *slug; ///< checkpoint-file suffix
        CacheSimConfig config;
    } candidates[] = {
        {"pull 2KB", "pull2", CacheSimConfig::pull(2 * 1024)},
        {"pull 16KB", "pull16", CacheSimConfig::pull(16 * 1024)},
        {"2KB + 1MB L2", "l2_1mb",
         CacheSimConfig::twoLevel(2 * 1024, 1ull << 20)},
        {"2KB + 4MB L2", "l2_4mb",
         CacheSimConfig::twoLevel(2 * 1024, 4ull << 20)},
    };
    const size_t n = sizeof candidates / sizeof candidates[0];

    const ReuseProfilerConfig prof_base = mrcFromCli(cli);
    const HostPathConfig host = hostPathFromCli(cli);
    if (host.fault_injection)
        std::printf("replaying over a faulty host channel (seed %llu, "
                    "drop %.3f, corrupt %.3f)\n",
                    static_cast<unsigned long long>(host.faults.seed),
                    host.faults.drop_rate, host.faults.corrupt_rate);

    // One replay per leg: each opens its own TraceReader over the
    // recorded clip and replays into a private workload + simulator, so
    // the table below is byte-identical regardless of --jobs. Buffered
    // per-leg stdout (snapshot notes, MRC ascii) flushes in leg order.
    std::vector<std::vector<std::string>> rows(n);
    SweepExecutor sweep(jobs);
    if (obs && obs->telemetry()) {
        obs->telemetry()->publishHealth("{\"status\":\"replaying\"}");
        sweep.setTelemetry(obs->telemetry());
    }
    for (size_t i = 0; i < n; ++i) {
        const Candidate &cand = candidates[i];
        sweep.addLeg(cand.label, [&, i, cand](LegContext &ctx) {
            Workload wl = buildWorkload(name);
            CacheSimConfig sc = cand.config;
            sc.host = host;
            CacheSim sim(*wl.textures, sc, cand.label);
            // Per-candidate profiler; attached before load() so a
            // resumed snapshot restores the profiler state it was
            // saved with.
            std::unique_ptr<ReuseProfiler> profiler;
            if (prof_base.enabled) {
                ReuseProfilerConfig pc = prof_base;
                pc.l1_unit_bytes = sc.l1.lineBytes();
                pc.l2_unit_bytes = sc.l1.lineBytes();
                profiler = std::make_unique<ReuseProfiler>(pc);
                sim.setReuseProfiler(profiler.get());
            }
            const std::string snap =
                resilience.checkpoint_path.empty()
                    ? std::string()
                    : resilience.checkpoint_path + "." + cand.slug +
                          ".snap";
            if (resilience.resume && !snap.empty()) {
                SnapshotReader r = openSnapshotGeneration(snap);
                sim.load(r);
                r.expectEnd();
            }
            TraceReader reader(path);
            uint64_t replayed = 0;
            while (reader.replayFrame(sim)) {
                sim.endFrame();
                sim.audit(resilience.audit);
                ++replayed;
            }
            if (!snap.empty()) {
                SnapshotWriter w(snap);
                w.keepPrevious(true);
                sim.save(w);
                w.finish();
                ctx.printf("[snapshot] %s\n", snap.c_str());
            }
            (void)replayed;
            if (profiler) {
                ctx.printf("\nreuse-distance profile of '%s':\n%s",
                           cand.label, profiler->asciiMrc().c_str());
                const std::string suffix = std::string(".") + cand.slug;
                if (!prof_base.mrc_out.empty())
                    profiler->writeMrc(prof_base.mrc_out + suffix);
                if (!prof_base.heatmap_out.empty())
                    profiler->writeHeatmaps(prof_base.heatmap_out + suffix);
            }
            const CacheFrameStats &t = sim.totals();
            // totals() and frames() span resumed sessions consistently.
            rows[i] = {cand.label, formatPercent(t.l1HitRate(), 2),
                       formatDouble(static_cast<double>(t.host_bytes) /
                                        static_cast<double>(sim.frames()) /
                                        (1 << 20),
                                    3),
                       host.fault_injection
                           ? std::to_string(t.host_retries)
                           : "-",
                       host.fault_injection
                           ? std::to_string(t.degraded_accesses)
                           : "-"};
        });
    }
    const SweepManifest manifest = sweep.run();

    TextTable table({"configuration", "L1 hit", "host MB/frame", "retries",
                     "degraded"});
    bool ok = true;
    for (size_t i = 0; i < n; ++i) {
        const LegResult &lr = manifest.legs[i];
        if (lr.outcome != LegOutcome::Completed) {
            std::fprintf(stderr, "replay '%s' %s%s%s\n", lr.name.c_str(),
                         legOutcomeName(lr.outcome),
                         lr.error.empty() ? "" : ": ",
                         lr.error.c_str());
            ok = false;
            continue;
        }
        table.addRow(rows[i]);
    }
    table.print();

    if (!cli.getFlag("keep")) {
        std::remove(path.c_str());
        std::printf("(trace deleted; pass --keep to keep it)\n");
    }
    if (obs) {
        if (obs->telemetry())
            obs->telemetry()->publishHealth(
                ok ? "{\"status\":\"completed\"}"
                   : "{\"status\":\"degraded\"}");
        try {
            obs->close();
        } catch (const Exception &e) {
            std::fprintf(stderr, "observability output failed: %s\n",
                         e.error().describe().c_str());
            return 1;
        }
        if (!obs_cfg.profile_out.empty())
            std::printf("[profile] %s.folded %s.json\n",
                        obs_cfg.profile_out.c_str(),
                        obs_cfg.profile_out.c_str());
    }
    return ok ? 0 : 1;
}
