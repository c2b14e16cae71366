/**
 * @file
 * Cache explorer: sweep any cache parameter over a workload from the
 * command line and print the bandwidth/hit-rate curve — a tool for the
 * kind of design-space exploration the paper does in §5.3, usable on
 * either workload without recompiling.
 *
 * Usage examples:
 *   cache_explorer --sweep l1 --workload village
 *   cache_explorer --sweep l2 --workload city --filter bilinear
 *   cache_explorer --sweep l2tile --frames 120
 *   cache_explorer --sweep tlb --jobs 8
 *   cache_explorer --sweep policy
 *   cache_explorer --sweep faults --fault-seed 7
 *   cache_explorer --sweep l2 --faults --fault-drop 0.1
 *   cache_explorer --sweep l2 --checkpoint /tmp/l2.snap --checkpoint-every 16
 *   cache_explorer --sweep l2 --checkpoint /tmp/l2.snap --resume
 *
 * Multi-tenant serving mode (docs/multi_tenant.md): --streams K runs K
 * independent camera streams into one shared L2 instead of a sweep:
 *   --streams=K              tenant count (>= 1)
 *   --l2-policy=P            shared | static | utility
 *   --stream-budget-mb=B     per-stream host budget per round (0 = off;
 *                            overruns shed load via LOD bias)
 *   --stream-workloads=LIST  comma list of workload names per stream
 *                            ("village", "city", "thrasher"); a single
 *                            name applies to every stream; default
 *                            alternates village/city
 *   --rounds=N               rounds (one frame per stream; default
 *                            --frames)
 *   --repartition-every=N    utility-quota retarget interval
 *   --fail-stream=I --fail-at-round=R   quarantine-injection test hook
 *   --round-sleep-ms=T       test hook: sleep T ms per round so an
 *                            external scraper lands mid-run
 *   --csv-prefix=BASE        write BASE.streamI.csv per-round rows
 * plus the shared --jobs / --checkpoint / --resume / --audit /
 * --metrics-out / --trace-out families, which keep their meaning
 * (--checkpoint=PATH also writes the PATH.manifest run summary;
 * --restart-limit is sweep-only and rejected here).
 *
 * Parallelism (docs/parallelism.md): every swept configuration is an
 * independent leg (its own workload, runner, fault RNG, metrics stream
 * and checkpoint) executed on a work-stealing pool:
 *   --jobs=N   worker threads (default: MLTC_JOBS env, else hardware
 *              concurrency; --jobs 1 = serial). Output bytes are
 *              invariant to N: tables, CSVs, merged metrics and
 *              snapshots are identical for --jobs 1 and --jobs 8.
 *
 * Any sweep accepts the --faults / --fault-* / --retry-* family (see
 * host/host_cli.hpp) to run it over the fault-injectable host backend;
 * `--sweep faults` sweeps the fault rate itself. Every leg runs under
 * watchdog supervision with the shared resilience flags
 * (sim/resilience.hpp): --checkpoint=PATH (per-leg PATH.legN files plus
 * a PATH.manifest sweep summary), --checkpoint-every=N, --resume,
 * --deadline-ms=D, --budget-ms=B, --audit=off|cheap|full,
 * --restart-limit=N. Ctrl-C checkpoints every leg at its next frame
 * boundary and exits cleanly; rerun with --resume to finish.
 *
 * Observability (obs/observability.hpp, docs/observability.md):
 *   --metrics-out=PATH  per-frame metrics registry snapshots (JSONL;
 *                       per-leg streams merged in leg order)
 *   --trace-out=PATH    Chrome trace-event / Perfetto timeline (JSON;
 *                       one shared thread-safe writer, one tid per
 *                       worker)
 *   --miss-classes      3C (compulsory/capacity/conflict) classification
 *                       with per-texture attribution tables
 *   --top-textures=N    rows in the top-textures-by-miss-traffic table
 *   --mrc               single-pass reuse-distance profiling of the
 *                       first swept configuration: miss-ratio curves,
 *                       working-set spectra, spatial miss heatmaps
 *   --mrc-out=BASE      write BASE.csv / BASE.ws.csv / BASE.json
 *   --heatmap-out=BASE  write BASE.json + PGM miss-density maps
 *   --mrc-sample-rate=R SHARDS-style spatial sampling (default 1.0)
 *
 * Live telemetry plane (docs/observability.md):
 *   --telemetry-port=P / --telemetry-port-file=F   /metrics (Prometheus
 *                       text), /healthz and /runz on 127.0.0.1
 *   --slo=RULES / --slo-out=PATH   per-stream burn-rate SLO alerts
 *                       (multi-tenant mode), e.g.
 *                       --slo "stream.miss_rate.l2<0.15@30f"
 *   --flight-out=PREFIX always-on flight recorder; dumps
 *                       PREFIX.flight/ on quarantine/watchdog/audit/IO
 *
 * Continuous profiling (docs/profiling.md):
 *   --profile-out=PREFIX sampling stage profiler; writes PREFIX.folded
 *                       (collapsed stacks, flamegraph.pl/speedscope
 *                       compatible) and PREFIX.json (per-stage summary,
 *                       per-leg/per-stream roll-ups, hardware counters)
 *   --profile-hz=N      sampling rate (default 997)
 *   --profile-no-counters  skip perf_event_open hardware counters
 * The profiler observes and never steers: simulation outputs are
 * byte-identical with profiling on or off, and across --jobs counts.
 */
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "host/host_cli.hpp"
#include "obs/observability.hpp"
#include "raster/access_sink.hpp"
#include "obs/reuse_profiler.hpp"
#include "sim/multi_config_runner.hpp"
#include "sim/multi_stream_runner.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/resilience.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/table.hpp"
#include "workload/registry.hpp"

namespace {

using namespace mltc;

/** One swept configuration. */
struct Candidate
{
    CacheSimConfig config;
    std::string label;
};

/** Everything one finished leg leaves behind for the report phase. */
struct LegState
{
    Workload wl;
    std::unique_ptr<MultiConfigRunner> runner;
    std::unique_ptr<Observability> obs;
    std::unique_ptr<ReuseProfiler> profiler;
    RunManifest manifest;
};

/**
 * Strictly parse the multi-tenant flags: every malformed value throws
 * mltc::Exception (BadArgument) naming the offending flag — the PR-2
 * rule that bad input dies loudly instead of being defaulted away.
 */
MultiStreamConfig
multiStreamFromCli(const CommandLine &cli)
{
    MultiStreamConfig ms;

    const unsigned long streams = cli.getUnsigned("streams", 1);
    if (streams == 0 || streams > 254)
        throw Exception(ErrorCode::BadArgument,
                        "--streams: expected a stream count in [1, 254], "
                        "got '" + cli.getString("streams", "") + "'");

    const std::string policy = cli.getString("l2-policy", "shared");
    try {
        ms.share = parseL2SharePolicy(policy.c_str());
    } catch (const std::invalid_argument &) {
        throw Exception(ErrorCode::BadArgument,
                        "--l2-policy: unknown policy '" + policy +
                            "' (expected shared|static|utility)");
    }

    const double budget_mb = cli.getDouble("stream-budget-mb", 0.0);
    if (budget_mb < 0.0)
        throw Exception(ErrorCode::BadArgument,
                        "--stream-budget-mb: budget must be >= 0, got '" +
                            cli.getString("stream-budget-mb", "") + "'");
    ms.stream_budget_bytes =
        static_cast<uint64_t>(budget_mb * (1 << 20));

    ms.rounds = static_cast<uint32_t>(
        cli.getUnsigned("rounds", cli.getUnsigned("frames", 16)));
    ms.width = static_cast<int>(cli.getInt("width", 320));
    ms.height = static_cast<int>(cli.getInt("height", 240));
    ms.l1_bytes = cli.getUnsigned("l1-kb", 16) << 10;
    ms.l2_bytes = cli.getUnsigned("l2-kb", 1024) << 10;
    ms.repartition_every = static_cast<uint32_t>(
        cli.getUnsigned("repartition-every", 8));
    ms.round_sleep_ms = static_cast<uint32_t>(
        cli.getUnsigned("round-sleep-ms", 0));
    ms.jobs = jobsFromCli(cli);

    // Stream composition: explicit comma list, a single name for all
    // streams, or the default alternating village/city mix.
    std::vector<std::string> names;
    const std::string list = cli.getString("stream-workloads", "");
    if (!list.empty()) {
        size_t start = 0;
        while (start <= list.size()) {
            const size_t comma = list.find(',', start);
            names.push_back(list.substr(
                start, comma == std::string::npos ? std::string::npos
                                                  : comma - start));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        if (names.size() != 1 && names.size() != streams)
            throw Exception(
                ErrorCode::BadArgument,
                "--stream-workloads: expected 1 or " +
                    std::to_string(streams) + " names, got " +
                    std::to_string(names.size()));
    }

    const long fail_stream = cli.getInt("fail-stream", -1);
    const long fail_round = cli.getInt("fail-at-round", 0);
    if (fail_stream >= static_cast<long>(streams))
        throw Exception(ErrorCode::BadArgument,
                        "--fail-stream: stream index out of range");

    for (unsigned long i = 0; i < streams; ++i) {
        StreamSpec spec;
        if (names.empty())
            spec.workload = (i % 2 == 0) ? "village" : "city";
        else
            spec.workload = names.size() == 1 ? names[0] : names[i];
        spec.filter = (i % 2 == 0) ? FilterMode::Bilinear
                                   : FilterMode::Trilinear;
        if (cli.has("filter"))
            spec.filter = parseFilterMode(cli.getString("filter", "bilinear"));
        spec.phase = static_cast<uint32_t>(i * 7);
        spec.seed = i;
        if (fail_stream >= 0 && static_cast<unsigned long>(fail_stream) == i)
            spec.fail_at_round = static_cast<int>(fail_round);
        ms.streams.push_back(std::move(spec));
    }
    return ms;
}

/** Print the tracer's stage self-time table (no-op without --trace-out). */
void
printStageTimes(Observability &obs)
{
    if (!obs.trace())
        return;
    std::printf("\nstage self-times (%s):\n", obs.trace()->path().c_str());
    TextTable st({"stage", "count", "total ms", "self ms"});
    for (const StageStat &s : obs.trace()->stageStats())
        st.addRow({s.name, std::to_string(s.count),
                   formatDouble(static_cast<double>(s.total_us) / 1000.0, 2),
                   formatDouble(static_cast<double>(s.self_us) / 1000.0, 2)});
    st.print();
}

int
runMultiStream(const CommandLine &cli)
{
    const MultiStreamConfig ms = multiStreamFromCli(cli);
    const ResilienceConfig resilience = resilienceFromCli(cli);
    const ObsConfig obs_cfg = obsFromCli(cli);
    installCancellationHandlers();

    Observability obs(obs_cfg);
    MultiStreamRunner runner(ms);
    if (obs_cfg.anyEnabled())
        runner.setObservability(&obs);

    std::printf("serving %u streams into one %s-policy L2 "
                "(%u rounds, %u jobs)...\n",
                runner.streamCount(), l2SharePolicyName(ms.share),
                ms.rounds, ms.jobs);

    const RunManifest manifest = runner.run(resilience);

    const std::string csv_prefix = cli.getString("csv-prefix", "");
    if (!csv_prefix.empty())
        for (uint32_t i = 0; i < runner.streamCount(); ++i)
            runner.writeStreamCsv(i, csv_prefix + ".stream" +
                                         std::to_string(i) + ".csv");

    TextTable table({"stream", "L1 hit", "L2 stream miss", "host MB",
                     "quota", "alloc", "bias", "status"});
    for (uint32_t i = 0; i < runner.streamCount(); ++i) {
        const CacheSim &sim = runner.sim(i);
        const CacheFrameStats &t = sim.totals();
        const L2StreamStats &ls = runner.l2().streamStats(i);
        const ManifestEntry &e = manifest.entries[i];
        table.addRow(
            {runner.streamName(i), formatPercent(t.l1HitRate(), 2),
             formatPercent(ls.missRate(), 2),
             formatDouble(static_cast<double>(t.host_bytes) / (1 << 20), 3),
             std::to_string(runner.l2().quotas()[i]),
             std::to_string(runner.l2().streamAllocated(i)),
             std::to_string(sim.l2Stream() == i
                                ? static_cast<unsigned long>(
                                      runner.rows(i).empty()
                                          ? 0
                                          : runner.rows(i).back().lod_bias)
                                : 0ul),
             e.quarantined
                 ? "quarantined@" + std::to_string(e.quarantined_at)
                 : "ok"});
        if (e.quarantined)
            std::fprintf(stderr, "stream '%s' quarantined at round %d: %s\n",
                         e.label.c_str(), e.quarantined_at,
                         e.error.describe().c_str());
    }
    table.print();

    if (manifest.outcome != RunOutcome::Completed)
        std::printf("run %s after %d rounds%s\n",
                    runOutcomeName(manifest.outcome),
                    manifest.frames_completed,
                    manifest.checkpoint.empty()
                        ? ""
                        : " (rerun with --resume to finish)");
    printStageTimes(obs);

    try {
        obs.close();
    } catch (const Exception &e) {
        std::fprintf(stderr, "observability output failed: %s\n",
                     e.error().describe().c_str());
        return 1;
    }
    if (!obs_cfg.profile_out.empty())
        std::printf("[profile] %s.folded %s.json\n",
                    obs_cfg.profile_out.c_str(),
                    obs_cfg.profile_out.c_str());
    return manifest.outcome == RunOutcome::Completed ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv);
    try {
        installIoFaultsFromCli(cli); // --io-faults=eio=R,...,seed=S
    } catch (const Exception &e) {
        std::fprintf(stderr, "%s\n", e.error().describe().c_str());
        return 1;
    }

    if (cli.has("streams")) {
        try {
            return runMultiStream(cli);
        } catch (const Exception &e) {
            std::fprintf(stderr, "%s\n", e.error().describe().c_str());
            return 1;
        }
    }

    const std::string sweep = cli.getString("sweep", "l1");
    const std::string workload = cli.getString("workload", "village");
    const int frames = static_cast<int>(cli.getInt("frames", 48));
    const ResilienceConfig resilience = resilienceFromCli(cli);
    const unsigned jobs = jobsFromCli(cli);
    installCancellationHandlers();

    DriverConfig cfg;
    cfg.filter = parseFilterMode(cli.getString("filter", "trilinear"));
    cfg.frames = frames;

    const ObsConfig obs_cfg = obsFromCli(cli);

    // The shared sinks: one thread-safe trace writer for every leg (a
    // tid per worker) installed process-globally; metrics stay per-leg
    // and are merged below.
    ObsConfig shared_cfg = obs_cfg;
    shared_cfg.metrics_path.clear();
    Observability obs(shared_cfg);

    // Optional fault scenario and miss classification applied to every
    // swept configuration.
    const HostPathConfig host = hostPathFromCli(cli);
    auto withHost = [&](CacheSimConfig sc) {
        sc.host = host;
        sc.classify_misses = obs_cfg.miss_classes;
        return sc;
    };

    std::vector<Candidate> candidates;
    if (sweep == "l1") {
        for (uint64_t kb : {1u, 2u, 4u, 8u, 16u, 32u, 64u})
            candidates.push_back({withHost(CacheSimConfig::pull(kb * 1024)),
                                  std::to_string(kb) + " KB L1 (pull)"});
    } else if (sweep == "l2") {
        for (uint64_t mb : {1u, 2u, 4u, 8u, 16u})
            candidates.push_back(
                {withHost(CacheSimConfig::twoLevel(2 * 1024, mb << 20)),
                 std::to_string(mb) + " MB L2"});
    } else if (sweep == "l2tile") {
        for (uint32_t tile : {8u, 16u, 32u})
            candidates.push_back(
                {withHost(
                     CacheSimConfig::twoLevel(2 * 1024, 2ull << 20, tile)),
                 std::to_string(tile) + "x" + std::to_string(tile) +
                     " L2 tiles"});
    } else if (sweep == "tlb") {
        for (uint32_t entries : {1u, 2u, 4u, 8u, 16u, 32u}) {
            CacheSimConfig sc =
                withHost(CacheSimConfig::twoLevel(2 * 1024, 2ull << 20));
            sc.tlb_entries = entries;
            candidates.push_back(
                {sc, std::to_string(entries) + "-entry TLB"});
        }
    } else if (sweep == "policy") {
        for (auto p : {ReplacementPolicy::Clock, ReplacementPolicy::Lru,
                       ReplacementPolicy::Fifo, ReplacementPolicy::Random}) {
            CacheSimConfig sc =
                withHost(CacheSimConfig::twoLevel(2 * 1024, 2ull << 20));
            sc.l2.policy = p;
            candidates.push_back({sc, replacementPolicyName(p)});
        }
    } else if (sweep == "faults") {
        for (double rate : {0.0, 0.01, 0.05, 0.1, 0.2, 0.4}) {
            CacheSimConfig sc =
                withHost(CacheSimConfig::twoLevel(2 * 1024, 2ull << 20));
            sc.host.fault_injection = true;
            sc.host.faults.drop_rate = rate;
            sc.host.faults.corrupt_rate = rate / 2.0;
            candidates.push_back({sc, formatPercent(rate, 0) + " fault rate"});
        }
    } else {
        std::printf(
            "unknown sweep '%s' (try l1|l2|l2tile|tlb|policy|faults)\n",
            sweep.c_str());
        return 1;
    }

    const ReuseProfilerConfig prof_cli = mrcFromCli(cli);

    std::printf("sweeping '%s' over %s (%d frames, %s filtering, "
                "%zu legs, %u jobs)...\n",
                sweep.c_str(), workload.c_str(), frames,
                filterModeName(cfg.filter), candidates.size(), jobs);

    // Each candidate is one leg: own workload (private TextureManager),
    // own runner + sim (private fault RNG stream), own metrics stream
    // and checkpoint. Results land in leg-indexed slots; every file and
    // table below is emitted in leg order, so output bytes cannot
    // depend on the pool's schedule.
    std::vector<std::unique_ptr<LegState>> legs(candidates.size());
    SweepExecutor executor(jobs);
    if (obs.telemetry()) {
        obs.telemetry()->publishHealth("{\"status\":\"serving\"}");
        executor.setTelemetry(obs.telemetry());
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
        executor.addLeg(candidates[i].label, [&, i](LegContext &ctx) {
            auto leg = std::make_unique<LegState>();
            leg->wl = buildWorkload(workload);
            leg->runner = std::make_unique<MultiConfigRunner>(leg->wl, cfg);
            leg->runner->addSim(candidates[i].config, candidates[i].label);

            if (!obs_cfg.metrics_path.empty()) {
                ObsConfig leg_obs = obs_cfg;
                leg_obs.trace_path.clear();
                // The telemetry plane is process-wide: the shared obs
                // owns the HTTP server and the flight recorder; a leg
                // must not bind a second port or steal the hooks.
                leg_obs.telemetry = false;
                leg_obs.telemetry_port_file.clear();
                leg_obs.slo_spec.clear();
                leg_obs.slo_out.clear();
                leg_obs.flight_out.clear();
                leg_obs.profile_out.clear();
                leg_obs.metrics_path += ".leg" + std::to_string(i);
                leg->obs = std::make_unique<Observability>(
                    leg_obs, /*install_process_hooks=*/false);
                leg->runner->setObservability(leg->obs.get());
            }

            // Reuse-distance profiler: attached to the first swept
            // configuration (every sweep sees the identical reference
            // stream, so one profiled sim predicts the whole capacity
            // axis). Must be attached before runSupervised so a
            // --resume checkpoint restores profiler state.
            if (i == 0 && prof_cli.enabled) {
                ReuseProfilerConfig pc = prof_cli;
                CacheSim &first = *leg->runner->sims().front();
                pc.screen_width = static_cast<uint32_t>(cfg.width);
                pc.screen_height = static_cast<uint32_t>(cfg.height);
                pc.l1_unit_bytes = first.config().l1.lineBytes();
                // L2 sectors transfer L1 lines: sector unit == line.
                pc.l2_unit_bytes = first.config().l1.lineBytes();
                leg->profiler = std::make_unique<ReuseProfiler>(pc);
                first.setReuseProfiler(leg->profiler.get());
            }

            leg->manifest =
                leg->runner->runSupervised(
                    legResilience(resilience, ".leg" + std::to_string(i)));
            if (leg->manifest.outcome != RunOutcome::Completed)
                ctx.printf("leg '%s' %s after %d frames%s\n",
                           candidates[i].label.c_str(),
                           runOutcomeName(leg->manifest.outcome),
                           leg->manifest.frames_completed,
                           leg->manifest.checkpoint.empty()
                               ? ""
                               : " (rerun with --resume to finish)");
            if (leg->obs)
                leg->obs->close();
            legs[i] = std::move(leg);
        });
    }
    const SweepManifest sweep_manifest = executor.run();
    if (obs.telemetry())
        obs.telemetry()->publishHealth(
            sweep_manifest.allCompleted()
                ? "{\"status\":\"completed\"}"
                : "{\"status\":\"degraded\"}");
    if (!resilience.checkpoint_path.empty())
        sweep_manifest.writeCsv(resilience.checkpoint_path + ".manifest");

    // Merge per-leg metrics JSONL into the requested file, leg order.
    if (!obs_cfg.metrics_path.empty()) {
        std::ofstream merged(obs_cfg.metrics_path, std::ios::binary);
        for (size_t i = 0; i < legs.size(); ++i) {
            const std::string part =
                obs_cfg.metrics_path + ".leg" + std::to_string(i);
            std::ifstream in(part, std::ios::binary);
            // Skip empty parts (a leg cancelled before its first
            // frame): streaming an empty rdbuf would set failbit on
            // the merged stream.
            if (in.good() && in.peek() != std::ifstream::traits_type::eof())
                merged << in.rdbuf();
            in.close();
            std::remove(part.c_str());
        }
        if (!merged.good()) {
            std::fprintf(stderr, "metrics merge failed: %s\n",
                         obs_cfg.metrics_path.c_str());
            return 1;
        }
    }

    bool all_completed = true;
    for (size_t i = 0; i < legs.size(); ++i) {
        const LegResult &lr = sweep_manifest.legs[i];
        if (lr.outcome == LegOutcome::Failed)
            std::fprintf(stderr, "leg '%s' failed: %s\n", lr.name.c_str(),
                         lr.error.c_str());
        if (!legs[i] ||
            legs[i]->manifest.outcome != RunOutcome::Completed)
            all_completed = false;
    }

    TextTable table({"configuration", "L1 hit", "L2 full hit", "TLB hit",
                     "host MB/frame", "retries", "degraded"});
    for (size_t i = 0; i < legs.size(); ++i) {
        if (!legs[i])
            continue; // failed or cancelled before running
        const LegState &leg = *legs[i];
        const CacheSim &sim = *leg.runner->sims().front();
        const CacheFrameStats &t = sim.totals();
        const bool faulty = sim.hostPath() != nullptr;
        const ManifestEntry &entry = leg.manifest.entries[0];
        const bool dead = entry.quarantined;
        table.addRow(
            {sim.label() + (dead ? " [quarantined]" : ""),
             formatPercent(t.l1HitRate(), 2),
             sim.l2() ? formatPercent(t.l2FullHitRate()) : "-",
             sim.tlb() ? formatPercent(t.tlbHitRate()) : "-",
             formatDouble(leg.runner->averageHostBytesPerFrame(0) /
                              (1 << 20),
                          3),
             faulty ? std::to_string(t.host_retries) : "-",
             faulty ? std::to_string(t.degraded_accesses) : "-"});
        if (dead)
            std::fprintf(stderr, "sim '%s' quarantined at frame %d: %s\n",
                         sim.label().c_str(), entry.quarantined_at,
                         entry.error.describe().c_str());
    }
    table.print();

    if (obs_cfg.miss_classes) {
        std::printf("\n3C miss classification (run totals):\n");
        TextTable cls({"configuration", "cache", "compulsory", "capacity",
                       "conflict"});
        for (const auto &legp : legs) {
            if (!legp)
                continue;
            const CacheSim &sim = *legp->runner->sims().front();
            const CacheFrameStats &t = sim.totals();
            cls.addRow({sim.label(), "L1", std::to_string(t.l1_compulsory),
                        std::to_string(t.l1_capacity),
                        std::to_string(t.l1_conflict)});
            if (sim.l2Classifier())
                cls.addRow({sim.label(), "L2",
                            std::to_string(t.l2_compulsory),
                            std::to_string(t.l2_capacity),
                            std::to_string(t.l2_conflict)});
        }
        cls.print();

        std::printf("\ntop %u textures by attributed miss traffic:\n",
                    obs_cfg.top_textures);
        TextTable top({"configuration", "tex", "misses", "compulsory",
                       "capacity", "conflict", "host MB"});
        for (const auto &legp : legs) {
            if (!legp)
                continue;
            const CacheSim &sim = *legp->runner->sims().front();
            const MissClassifier *mc = sim.l2Classifier()
                                           ? sim.l2Classifier()
                                           : sim.l1Classifier();
            if (!mc)
                continue;
            for (const MissAttributionRow &row :
                 mc->topTexturesByTraffic(obs_cfg.top_textures))
                top.addRow({sim.label(), std::to_string(row.tex),
                            std::to_string(row.counts.total()),
                            std::to_string(row.counts.compulsory),
                            std::to_string(row.counts.capacity),
                            std::to_string(row.counts.conflict),
                            formatDouble(static_cast<double>(row.bytes) /
                                             (1 << 20),
                                         3)});
        }
        top.print();
    }

    if (!legs.empty() && legs[0] && legs[0]->profiler) {
        const ReuseProfiler &profiler = *legs[0]->profiler;
        std::printf("\nreuse-distance profile of '%s':\n%s",
                    legs[0]->runner->sims().front()->label().c_str(),
                    profiler.asciiMrc().c_str());
        try {
            if (!prof_cli.mrc_out.empty()) {
                profiler.writeMrc(prof_cli.mrc_out);
                std::printf("[mrc] %s.csv %s.ws.csv %s.json\n",
                            prof_cli.mrc_out.c_str(),
                            prof_cli.mrc_out.c_str(),
                            prof_cli.mrc_out.c_str());
            }
            if (!prof_cli.heatmap_out.empty()) {
                profiler.writeHeatmaps(prof_cli.heatmap_out);
                std::printf("[heatmap] %s.json + PGM maps\n",
                            prof_cli.heatmap_out.c_str());
            }
        } catch (const Exception &e) {
            std::fprintf(stderr, "profiler output failed: %s\n",
                         e.error().describe().c_str());
            return 1;
        }
    }

    printStageTimes(obs);

    try {
        obs.close();
    } catch (const Exception &e) {
        std::fprintf(stderr, "observability output failed: %s\n",
                     e.error().describe().c_str());
        return 1;
    }
    if (!obs_cfg.profile_out.empty())
        std::printf("[profile] %s.folded %s.json\n",
                    obs_cfg.profile_out.c_str(),
                    obs_cfg.profile_out.c_str());
    return all_completed ? 0 : 2;
}
