/**
 * @file
 * Extension: deterministic chaos harness.
 *
 * The whole robustness ladder at once: a supervised sweep runs under
 * combined host-channel faults (drops, corruption, latency spikes), an
 * I/O fault storm on every persisted byte (EIO, ENOSPC, short writes,
 * fsync failures, torn renames), and seeded mid-run SIGKILLs — and the
 * final CSVs must still come out byte-identical to a clean-disk,
 * never-killed reference. Two modes:
 *
 *   ext_chaos [--seed=S]                single supervised multi-config
 *                                       sweep (host faults + storm +
 *                                       kills)
 *   ext_chaos --streams K [--seed=S]    K-tenant shared-L2 serving run
 *                                       (storm + kills)
 *
 * --io-faults=SPEC overrides the default storm (util/io.hpp grammar).
 * Every source of chaos derives from --seed, so a failing run can be
 * replayed exactly. Exit 0 = bit-identical, 1 = divergence or a run
 * that could not finish.
 *
 * Streams mode also takes --fail-at-round R (seed a deterministic
 * tenant quarantine) and --flight-out PREFIX (attach a flight recorder
 * for the storm run); together they prove a quarantine under the full
 * storm still lands a `PREFIX.flight/` bundle — and that attaching the
 * recorder never changes an output byte.
 *
 * The SIGKILLs are real: each crash epoch forks, the child raises
 * SIGKILL from inside the checkpoint path (no destructors, no atexit),
 * and the next epoch resumes from the surviving checkpoint generation.
 * Registered in ctest as `ext_chaos` / `ext_chaos_streams`; the CI
 * chaos job soaks it via scripts/chaos_soak.sh.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/multi_stream_runner.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "workload/registry.hpp"

namespace {

using namespace mltc;
using namespace mltc::bench;

std::string
fileText(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    std::fseek(f, 0, SEEK_END);
    std::string text(static_cast<size_t>(std::ftell(f)), '\0');
    std::fseek(f, 0, SEEK_SET);
    const size_t got = std::fread(text.data(), 1, text.size(), f);
    std::fclose(f);
    text.resize(got);
    return text;
}

/**
 * Run @p attempt_run under a seeded SIGKILL storm: crash epochs fork a
 * child that dies via --die-after-checkpoint inside the checkpoint
 * path, then a final in-process resume finishes the run. Returns false
 * when the storm could not be driven to completion.
 */
bool
runUnderKills(uint64_t seed, int epochs,
              const std::function<int(const ResilienceConfig &)> &attempt,
              const ResilienceConfig &base)
{
    for (int k = 0; k < epochs; ++k) {
        ResilienceConfig rc = base;
        rc.resume = k > 0;
        // Seed-derived kill point: after 1..3 periodic checkpoints of
        // this epoch — "random frame", replayable from --seed.
        rc.die_after_checkpoints =
            1 + static_cast<uint32_t>((seed + static_cast<uint64_t>(k) *
                                                  2654435761u) %
                                      3);
        std::fflush(stdout); // the child inherits the stdio buffer
        const pid_t child = fork();
        if (child < 0) {
            std::fprintf(stderr, "chaos: fork failed\n");
            return false;
        }
        if (child == 0) {
            const int rcode = attempt(rc);
            _exit(rcode);
        }
        int status = 0;
        if (waitpid(child, &status, 0) != child)
            return false;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            std::printf("chaos: epoch %d finished before its kill "
                        "point\n",
                        k);
            break; // the run completed under the storm
        }
        if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
            std::printf("chaos: epoch %d killed after %u checkpoint(s)\n",
                        k, rc.die_after_checkpoints);
            continue;
        }
        std::fprintf(stderr,
                     "chaos: epoch %d died unexpectedly (status %d)\n", k,
                     status);
        return false;
    }
    // Final in-process resume: must complete and write the CSVs.
    ResilienceConfig rc = base;
    rc.resume = true;
    return attempt(rc) == 0;
}

bool
compareCsv(const std::string &label, const std::string &reference,
           const std::string &path)
{
    const std::string got = fileText(path);
    if (got == reference && !got.empty()) {
        std::printf("chaos: [%s] byte-identical (%zu bytes)\n",
                    label.c_str(), got.size());
        return true;
    }
    std::fprintf(stderr,
                 "chaos: FAIL [%s] diverged (%zu reference bytes, %zu "
                 "chaos bytes) — see %s\n",
                 label.c_str(), reference.size(), got.size(),
                 path.c_str());
    return false;
}

// ---------------------------------------------------------------------------
// Single supervised sweep: one workload, three configurations, host
// faults on. The run function is shared between the reference and
// every chaos epoch, so the only variables are the storm and the kills.

int
runSingleSweep(int n_frames, uint64_t host_seed, const std::string &csv,
               const ResilienceConfig &rc)
{
    Workload wl = buildWorkload("village");
    DriverConfig cfg;
    cfg.filter = FilterMode::Trilinear;
    cfg.frames = n_frames;

    MultiConfigRunner runner(wl, cfg);
    const struct
    {
        const char *label;
        CacheSimConfig config;
    } candidates[] = {
        {"pull 2KB", CacheSimConfig::pull(2 * 1024)},
        {"2KB + 1MB L2", CacheSimConfig::twoLevel(2 * 1024, 1ull << 20)},
        {"2KB + 4MB L2", CacheSimConfig::twoLevel(2 * 1024, 4ull << 20)},
    };
    for (const auto &cand : candidates) {
        CacheSimConfig sc = cand.config;
        sc.host.fault_injection = true;
        sc.host.faults.seed = host_seed;
        sc.host.faults.drop_rate = 0.1;
        sc.host.faults.corrupt_rate = 0.05;
        sc.host.faults.spike_rate = 0.05;
        runner.addSim(sc, cand.label);
    }
    const RunManifest manifest = runner.runSupervised(rc);
    if (manifest.outcome != RunOutcome::Completed)
        return 3; // killed mid-run epochs land here if not SIGKILLed
    CsvWriter out(csv, {"config", "l1_hit", "host_mb_per_frame",
                        "host_retries", "degraded"});
    for (size_t i = 0; i < runner.sims().size(); ++i) {
        const CacheFrameStats &t = runner.sims()[i]->totals();
        out.rowStrings({candidates[i].label,
                        formatPercent(t.l1HitRate(), 2),
                        formatDouble(runner.averageHostBytesPerFrame(i) /
                                         (1024.0 * 1024.0),
                                     3),
                        std::to_string(t.host_retries),
                        std::to_string(t.degraded_accesses)});
    }
    out.close();
    return 0;
}

int
chaosSingle(uint64_t seed, int n_frames, const IoFaultConfig &storm)
{
    const std::string ref_csv = csvPath("ext_chaos_ref.csv");
    const std::string chaos_csv = csvPath("ext_chaos.csv");
    const std::string ckpt = csvPath("ext_chaos.ckpt.snap");

    std::printf("-- reference sweep (host faults, clean disk) --\n");
    if (runSingleSweep(n_frames, seed, ref_csv, {}) != 0) {
        std::fprintf(stderr, "chaos: reference run failed\n");
        return 1;
    }
    const std::string reference = fileText(ref_csv);

    std::printf("-- chaos sweep (storm + SIGKILL epochs) --\n");
    installProcessIoFaults(storm);
    ResilienceConfig base;
    base.checkpoint_path = ckpt;
    base.checkpoint_every = 1;
    const bool done = runUnderKills(
        seed, 4,
        [&](const ResilienceConfig &rc) {
            return runSingleSweep(n_frames, seed, chaos_csv, rc);
        },
        base);
    if (!done) {
        std::fprintf(stderr, "chaos: storm run never completed\n");
        return 1;
    }
    return compareCsv("single sweep", reference, chaos_csv) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// K-tenant shared-L2 serving under the same storm.

MultiStreamConfig
streamsConfig(unsigned streams, int rounds)
{
    MultiStreamConfig ms;
    ms.width = 96;
    ms.height = 64;
    ms.rounds = static_cast<uint32_t>(rounds);
    ms.l1_bytes = 4ull << 10;
    ms.l2_bytes = 512ull << 10;
    ms.share = L2SharePolicy::Utility;
    ms.repartition_every = 2;
    ms.jobs = 1;
    const char *mix[] = {"village", "city", kThrasherWorkload, "village"};
    for (unsigned i = 0; i < streams; ++i) {
        StreamSpec spec;
        spec.workload = mix[i % 4];
        spec.filter =
            i % 2 == 0 ? FilterMode::Bilinear : FilterMode::Trilinear;
        spec.phase = i * 5;
        spec.seed = i;
        ms.streams.push_back(std::move(spec));
    }
    return ms;
}

int
runStreams(const MultiStreamConfig &ms, const std::string &csv_prefix,
           const ResilienceConfig &rc)
{
    MultiStreamRunner runner(ms);
    if (runner.run(rc).outcome != RunOutcome::Completed)
        return 3;
    for (uint32_t i = 0; i < runner.streamCount(); ++i)
        runner.writeStreamCsv(i, csv_prefix + ".stream" +
                                     std::to_string(i) + ".csv");
    return 0;
}

int
chaosStreams(uint64_t seed, unsigned streams, int rounds,
             const IoFaultConfig &storm, int fail_at_round,
             const std::string &flight_out)
{
    MultiStreamConfig ms = streamsConfig(streams, rounds);
    if (fail_at_round >= 0)
        // Seeded quarantine: a deterministic tenant death both the
        // reference and the storm run replay identically — and the
        // moment the flight recorder (when attached) dumps its bundle.
        ms.streams[(seed / 7) % streams].fail_at_round = fail_at_round;
    const std::string ref_prefix = csvPath("ext_chaos_streams_ref");
    const std::string chaos_prefix = csvPath("ext_chaos_streams");
    const std::string ckpt = csvPath("ext_chaos_streams.ckpt.snap");

    std::printf("-- reference %u-stream run (clean disk) --\n", streams);
    if (runStreams(ms, ref_prefix, {}) != 0) {
        std::fprintf(stderr, "chaos: reference run failed\n");
        return 1;
    }
    std::vector<std::string> reference;
    for (unsigned i = 0; i < streams; ++i)
        reference.push_back(fileText(ref_prefix + ".stream" +
                                     std::to_string(i) + ".csv"));

    std::printf("-- chaos %u-stream run (storm + SIGKILL epochs) --\n",
                streams);
    // The flight recorder rides through the storm: every SIGKILL epoch
    // inherits it across fork(), and a quarantine inside any epoch must
    // land a bundle through atomicWriteFile despite the injected
    // faults. Observation only — the CSV byte-identity check below
    // proves it never perturbs the run.
    std::unique_ptr<FlightRecorder> flight;
    if (!flight_out.empty()) {
        FlightRecorder::Config fc;
        fc.prefix = flight_out;
        flight = std::make_unique<FlightRecorder>(fc);
        hooks().install(flight.get());
    }
    installProcessIoFaults(storm);
    ResilienceConfig base;
    base.checkpoint_path = ckpt;
    base.checkpoint_every = 1;
    const bool done = runUnderKills(
        seed, 4,
        [&](const ResilienceConfig &rc) {
            return runStreams(ms, chaos_prefix, rc);
        },
        base);
    hooks().uninstall(flight.get());
    if (!done) {
        std::fprintf(stderr, "chaos: storm run never completed\n");
        return 1;
    }
    bool ok = true;
    for (unsigned i = 0; i < streams; ++i)
        ok = compareCsv("stream " + std::to_string(i), reference[i],
                        chaos_prefix + ".stream" + std::to_string(i) +
                            ".csv") &&
             ok;
    if (!flight_out.empty() && fail_at_round >= 0) {
        const std::string bundle = flight_out + ".flight";
        if (fileText(bundle + "/trace.json").empty() ||
            fileText(bundle + "/metrics.jsonl").empty()) {
            std::fprintf(stderr,
                         "chaos: FAIL no flight bundle at %s despite a "
                         "seeded quarantine\n",
                         bundle.c_str());
            ok = false;
        } else {
            std::printf("chaos: flight bundle landed at %s\n",
                        bundle.c_str());
        }
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mltc;
    using namespace mltc::bench;

    CommandLine cli(argc, argv);
    uint64_t seed = 0;
    unsigned streams = 0;
    int fail_at_round = -1;
    std::string flight_out;
    std::optional<IoFaultConfig> custom_storm;
    if (const int status = parseArguments([&] {
            seed = cli.getUnsigned("seed", 42);
            streams = static_cast<unsigned>(cli.getUnsigned("streams", 0));
            if (cli.has("io-faults"))
                custom_storm = parseIoFaultSpec(cli.getString("io-faults", ""));
            fail_at_round = static_cast<int>(cli.getInt("fail-at-round", -1));
            flight_out = cli.getString("flight-out", "");
            cli.rejectUnread();
        }))
        return status;
    const int n_frames = frames(6);

    banner("Extension: deterministic chaos harness",
           "Host faults + I/O fault storm + seeded SIGKILLs; final CSVs "
           "must be byte-identical to a clean-disk reference");

    // The reference runs on a perfect disk; the storm is installed only
    // after it. Default storm: every failure mode at once, plus a
    // guaranteed torn rename and fsync failure early on. Moderate rates
    // — the ladder retries each atomic commit up to 8 times, and
    // checkpoint commits degrade to skip-with-backoff, so the run rides
    // through without the CSVs ever depending on which attempts failed.
    IoFaultConfig storm;
    if (custom_storm) {
        storm = *custom_storm;
    } else {
        storm.seed = seed;
        storm.eio_rate = 0.05;
        storm.enospc_rate = 0.03;
        storm.short_rate = 0.05;
        storm.fsync_rate = 0.10;
        storm.torn_rate = 0.08;
        storm.schedule.push_back({IoFaultKind::TornRename, 1});
        storm.schedule.push_back({IoFaultKind::FsyncFail, 2});
    }

    const int rcode =
        streams > 0
            ? chaosStreams(seed, streams, n_frames, storm,
                           fail_at_round, flight_out)
            : chaosSingle(seed, n_frames, storm);
    if (IoFaultInjector *inj = FileBackend::instance().injector()) {
        const IoFaultStats &s = inj->stats();
        std::printf("chaos: injected %llu I/O faults (%llu eio, %llu "
                    "enospc, %llu short, %llu fsync, %llu torn) over "
                    "%llu writes / %llu fsyncs / %llu renames\n",
                    static_cast<unsigned long long>(s.injected()),
                    static_cast<unsigned long long>(s.eio),
                    static_cast<unsigned long long>(s.enospc),
                    static_cast<unsigned long long>(s.short_writes),
                    static_cast<unsigned long long>(s.fsync_failures),
                    static_cast<unsigned long long>(s.torn_renames),
                    static_cast<unsigned long long>(s.writes),
                    static_cast<unsigned long long>(s.fsyncs),
                    static_cast<unsigned long long>(s.renames));
    }
    clearProcessIoFaults();
    std::printf(rcode == 0 ? "ext_chaos: PASS\n" : "ext_chaos: FAIL\n");
    return rcode;
}
