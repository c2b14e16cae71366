/**
 * @file
 * perfbench: end-to-end frame benchmark of the simulator at the paper
 * configuration (see perfbench/README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--scene-seed K] [--golden-dir DIR] [--out-dir DIR]
 *             [--write-golden]
 *
 * Prints "# "-prefixed report lines, then one JSON result line.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/resource.h>

#include "core/batch_stage.hpp"
#include "golden.hpp"
#include "raster/access_sink.hpp"
#include "stats.hpp"
#include "timing_sink.hpp"
#include "util/build_info.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args
{
    Options opts;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string golden_dir = "perfbench/golden";
    bool write_golden = false;
};

uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    size_t pos = 0;
    unsigned long long n = 0;
    try {
        n = std::stoull(v, &pos);
    } catch (const std::exception &) {
        pos = 0;
    }
    if (pos == 0 || pos != v.size() || v[0] == '-')
        throw std::invalid_argument(flag + ": not a non-negative integer: '" + v + "'");
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--write-golden") {
            a.write_golden = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + ": missing value");
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.opts.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = parseU64(flag, v);
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parseU64(flag, v));
        } else if (flag == "--trace") {
            const uint64_t t = parseU64(flag, v);
            if (t > 1)
                throw std::invalid_argument("--trace: expected 0 or 1");
            a.trace = t == 1;
        } else if (flag == "--scene-seed") {
            a.opts.scene_seed = parseU64(flag, v);
        } else if (flag == "--golden-dir") {
            a.golden_dir = v;
        } else if (flag == "--out-dir") {
            a.opts.out_dir = v;
        } else {
            throw std::invalid_argument("unknown flag '" + flag + "'");
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    if (a.write_golden && a.opts.scene_seed)
        throw std::invalid_argument("--write-golden stores the paper seeds' values; "
                                    "drop --scene-seed");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.opts.workload) == names.end())
        throw std::invalid_argument("unknown workload '" + a.opts.workload + "'");
    a.opts.phase = static_cast<int>(a.seed % kPhases);
    a.opts.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    return a;
}

/**
 * Every number must measure the default path of an optimised build:
 * refuse anything else rather than report it.
 */
void
guardBuild()
{
#if !defined(__OPTIMIZE__)
    throw std::runtime_error("refusing to run: benchmark built without optimisation");
#endif
    const std::string &flags = mltc::buildInfo().flags;
    if (flags.find("(Release)") == std::string::npos &&
        flags.find("(RelWithDebInfo)") == std::string::npos)
        throw std::runtime_error("refusing to run: simulator build type is '" +
                                 flags + "', not Release/RelWithDebInfo");
    for (const char *env : {"MLTC_BATCH", "MLTC_BATCH_SIMD", "MLTC_JOBS"})
        if (std::getenv(env) != nullptr)
            throw std::runtime_error(std::string("refusing to run: ") + env +
                                     " is set; unset it to measure the default path");
    if (!mltc::batchedAccess())
        throw std::runtime_error("refusing to run: batched access is off");
}

std::string
provenanceJson(const Args &a)
{
    const mltc::BuildInfo &b = mltc::buildInfo();
    auto env = [](const char *name) {
        const char *v = std::getenv(name);
        return v ? jsonString(v) : std::string("null");
    };
    std::string out = "{";
    out += "\"git_sha\": " + jsonString(b.git_sha);
    out += ", \"build_flags\": " + jsonString(b.flags);
    out += ", \"compiler\": " + jsonString(b.compiler);
    out += ", \"cpu_model\": " + jsonString(b.cpu_model);
    out += ", \"nproc\": " + std::to_string(b.cores);
    out += ", \"avx512_staging\": ";
    out += mltc::detail::resolveStageRun() != nullptr ? "true" : "false";
    out += ", \"workload\": " + jsonString(a.opts.workload);
    out += ", \"seed\": " + std::to_string(a.seed);
    out += ", \"phase\": " + std::to_string(a.opts.phase);
    out += ", \"scene_seed\": " +
           (a.opts.scene_seed ? std::to_string(*a.opts.scene_seed)
                              : std::string("\"paper\""));
    out += ", \"MLTC_BATCH\": " + env("MLTC_BATCH");
    out += ", \"MLTC_BATCH_SIMD\": " + env("MLTC_BATCH_SIMD");
    out += ", \"MLTC_JOBS\": " + env("MLTC_JOBS");
    return out + "}";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6; // ru_maxrss is KiB
}

/** Frames, timings and gate inputs of one run (untraced or traced). */
struct RunOut
{
    std::vector<FrameRecord> frames;
    std::vector<FrameRecord> first_pass;
    std::vector<double> frame_ms;
    std::vector<double> record_ms;
    int64_t timed_ns = 0;
    uint64_t refs = 0;
    uint64_t first_host_bytes = 0;
    uint64_t trace_bytes = 0;
    uint64_t recorded_refs = 0;

    double
    refsPerS() const
    {
        return timed_ns > 0 ? static_cast<double>(refs) * 1e9 /
                                  static_cast<double>(timed_ns)
                            : 0.0;
    }

    double
    meanFrameMs() const
    {
        double s = 0;
        for (double v : frame_ms)
            s += v;
        return frame_ms.empty() ? 0.0 : s / static_cast<double>(frame_ms.size());
    }
};

/**
 * Passes over the clip for @p seconds. The first pass always completes;
 * another starts only if a pass as long as the last one still fits, so
 * a workload whose passes cannot stop early (runner, serving) does not
 * flip between one and two passes, and with them its sample count.
 */
RunOut
runFor(Bench &bench, double seconds, Layers *layers)
{
    RunOut r;
    const int64_t deadline = nowNs() + static_cast<int64_t>(seconds * 1e9);
    bool first = true;
    int64_t last_pass_ns = 0;
    do {
        PassOut p;
        const int64_t p0 = nowNs();
        bench.pass(first ? INT64_MAX : deadline, p, layers);
        last_pass_ns = nowNs() - p0;
        if (first) {
            r.first_pass = p.frames;
            r.first_host_bytes = p.host_bytes;
        }
        first = false;
        r.frames.insert(r.frames.end(), p.frames.begin(), p.frames.end());
        r.frame_ms.insert(r.frame_ms.end(), p.frame_ms.begin(), p.frame_ms.end());
        r.record_ms.insert(r.record_ms.end(), p.record_ms.begin(), p.record_ms.end());
        r.timed_ns += p.timed_ns;
        r.refs += p.refs;
        r.trace_bytes += p.trace_bytes;
        r.recorded_refs += p.recorded_refs;
    } while (nowNs() + last_pass_ns < deadline);
    return r;
}

/** Gate every frame against the stored expected rows. */
void
gateGolden(const Golden &golden, int phase, const std::vector<FrameRecord> &frames,
           FrameLedger &ledger)
{
    for (const FrameRecord &f : frames) {
        const std::vector<StatRow> *want = golden.find(phase, f.frame);
        const bool ok = f.ok && want != nullptr && *want == f.rows;
        if (!ok)
            std::printf("# FAIL frame %d: %s\n", f.frame,
                        !f.ok ? f.error.c_str()
                              : want ? "stats differ from the expected values"
                                     : "no expected values stored");
        ledger.record(ok);
    }
}

/** Held-out seed: the traced run's first pass must equal the untraced one's. */
void
gateDifferential(const std::vector<FrameRecord> &untraced,
                 const std::vector<FrameRecord> &traced, FrameLedger &ledger)
{
    for (size_t i = 0; i < traced.size(); ++i) {
        const bool ok = traced[i].ok && i < untraced.size() && untraced[i].ok &&
                        untraced[i].rows == traced[i].rows;
        if (!ok)
            std::printf("# FAIL frame %d: traced stats differ from untraced\n",
                        traced[i].frame);
        ledger.record(ok);
    }
}

/** Field index by name in a stat row, or -1. */
int
fieldIndex(const std::vector<std::string> &fields, const char *name)
{
    auto it = std::find(fields.begin(), fields.end(), name);
    return it == fields.end() ? -1 : static_cast<int>(it - fields.begin());
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * Consumer counters summed over @p frames, overall (label "") and per
 * consumer: accesses per frame, miss rates, host bytes per frame.
 */
std::vector<Metric>
coreCounters(const Bench &bench, const std::vector<FrameRecord> &frames,
             const Layers &L)
{
    const auto &fields = bench.fields();
    const int acc = fieldIndex(fields, "accesses");
    const int l1m = fieldIndex(fields, "l1_misses");
    const int full = fieldIndex(fields, "l2_full_hits");
    const int part = fieldIndex(fields, "l2_partial_hits");
    const int host = fieldIndex(fields, "host_bytes");
    const int vict = fieldIndex(fields, "victim_steps_max");
    const std::vector<std::string> labels = bench.consumerLabels();
    struct Sum
    {
        double acc = 0, l1m = 0, full = 0, part = 0, host = 0;
    };
    std::vector<Sum> per(labels.size());
    Sum all;
    uint64_t victim = L.victim_steps_max;
    double n = 0;
    for (const FrameRecord &f : frames) {
        if (!f.ok)
            continue;
        n += 1;
        for (size_t c = 0; c < f.rows.size() && c < per.size(); ++c) {
            const StatRow &r = f.rows[c];
            Sum &s = per[c];
            s.acc += static_cast<double>(r[acc]);
            s.l1m += static_cast<double>(r[l1m]);
            s.full += static_cast<double>(r[full]);
            s.part += static_cast<double>(r[part]);
            s.host += static_cast<double>(r[host]);
            if (vict >= 0)
                victim = std::max<uint64_t>(victim, r[vict]);
        }
    }
    for (const Sum &s : per) {
        all.acc += s.acc;
        all.l1m += s.l1m;
        all.full += s.full;
        all.part += s.part;
        all.host += s.host;
    }
    std::vector<Metric> out;
    auto add = [&](const std::string &suffix, const Sum &s) {
        out.push_back({"core.accesses" + suffix, ratio(s.acc, n), "refs/frame"});
        out.push_back({"core.l1_miss_rate" + suffix, ratio(s.l1m, s.acc), "ratio"});
        out.push_back({"core.l2_full_hit_rate" + suffix, ratio(s.full, s.l1m), "ratio"});
        out.push_back({"core.l2_partial_rate" + suffix, ratio(s.part, s.l1m), "ratio"});
        out.push_back({"core.host_bytes_per_frame" + suffix, ratio(s.host, n), "B/frame"});
    };
    add("", all);
    out.push_back({"core.victim_steps_max", static_cast<double>(victim), "steps"});
    for (size_t c = 0; c < labels.size(); ++c)
        add(":" + labels[c], per[c]);
    return out;
}

/** Per-layer metrics of the traced run: the declared ones first, then extras. */
std::vector<Metric>
layerMetrics(const Bench &bench, const RunOut &untraced, const RunOut &traced,
             Layers &L, double build_ms)
{
    bench.finish(L, untraced.meanFrameMs());
    const double frames = static_cast<double>(L.raster_frames);
    std::vector<Metric> m = {
        {"workload.build_ms", build_ms, "ms"},
        {"raster.self_ns_per_ref",
         ratio(static_cast<double>(L.raster_self_ns), static_cast<double>(L.raster_refs)),
         "ns/ref"},
        {"raster.self_ms_per_frame", ratio(static_cast<double>(L.raster_self_ns) / 1e6, frames),
         "ms"},
        {"raster.refs_per_frame", ratio(static_cast<double>(L.raster_refs), frames), "refs"},
        {"raster.pixels_textured_per_frame", ratio(static_cast<double>(L.pixels), frames),
         "pixels"},
        {"raster.triangles_drawn_per_frame", ratio(static_cast<double>(L.triangles), frames),
         "triangles"},
        {"raster.binds_per_frame", ratio(static_cast<double>(L.binds), frames), "binds"},
        {"raster.batches_per_frame", ratio(static_cast<double>(L.batches), frames), "batches"},
        {"raster.refs_per_batch",
         ratio(static_cast<double>(L.batch_refs), static_cast<double>(L.batches)), "refs"},
    };
    double ns = 0, refs = 0, end_ns = 0, ends = 0;
    std::vector<Metric> per_consumer;
    for (const auto &[label, t] : L.consumers) {
        ns += static_cast<double>(t.ns);
        refs += static_cast<double>(t.refs);
        end_ns += static_cast<double>(t.endframe_ns);
        ends += static_cast<double>(t.frames);
        per_consumer.push_back({"core.access_ns_per_ref:" + label,
                                ratio(static_cast<double>(t.ns), static_cast<double>(t.refs)),
                                "ns/ref"});
        per_consumer.push_back({"core.endframe_us:" + label,
                                ratio(static_cast<double>(t.endframe_ns) / 1e3,
                                      static_cast<double>(t.frames)),
                                "us"});
    }
    m.push_back({"core.access_ns_per_ref", ratio(ns, refs), "ns/ref"});
    m.push_back({"core.endframe_us", ratio(end_ns / 1e3, ends), "us"});
    const std::vector<Metric> counts = coreCounters(bench, traced.frames, L);
    // The overall counters (no ":" label) belong to the declared set.
    for (const Metric &c : counts)
        if (c.name.find(':') == std::string::npos)
            m.push_back(c);
    m.push_back({"bench.trace_overhead", ratio(traced.refsPerS(), untraced.refsPerS()),
                 "ratio"});
    for (const Metric &c : counts)
        if (c.name.find(':') != std::string::npos)
            m.push_back(c);
    m.insert(m.end(), per_consumer.begin(), per_consumer.end());
    for (const auto &[name, e] : L.extra)
        m.push_back(e);
    return m;
}

/** Keep only @p names, in that order; throws when one is missing. */
std::vector<Metric>
select(const std::vector<Metric> &all, const std::vector<std::string> &names)
{
    std::vector<Metric> out;
    for (const std::string &n : names) {
        auto it = std::find_if(all.begin(), all.end(),
                               [&](const Metric &m) { return m.name == n; });
        if (it == all.end())
            throw std::logic_error("metric not computed: " + n);
        out.push_back(*it);
    }
    return out;
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("# %s\n", title);
    for (const Metric &m : ms)
        std::printf("#   %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    for (const Span &s : spans)
        out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"name\": " << jsonString(s.name) << ", \"frame\": " << s.frame
            << ", \"start_ns\": " << s.start_ns << ", \"dur_ns\": " << s.dur_ns
            << ", \"calls\": " << s.calls << "}\n";
}

/** Regenerate the stored expected rows for every phase of one workload. */
int
writeGolden(const Args &a)
{
    Golden golden;
    std::vector<std::string> fields;
    for (int phase = 0; phase < kPhases; ++phase) {
        Options o = a.opts;
        o.phase = phase;
        auto bench = makeBench(o);
        fields = bench->fields();
        bench->setup();
        PassOut plain, traced;
        Layers layers;
        bench->pass(INT64_MAX, plain, nullptr);
        bench->pass(INT64_MAX, traced, &layers);
        if (plain.frames.size() != traced.frames.size())
            throw std::runtime_error("traced pass rendered a different frame count");
        for (size_t i = 0; i < plain.frames.size(); ++i) {
            const FrameRecord &p = plain.frames[i];
            if (!p.ok || !traced.frames[i].ok || p.rows != traced.frames[i].rows)
                throw std::runtime_error("phase " + std::to_string(phase) + " frame " +
                                         std::to_string(p.frame) +
                                         ": traced and untraced stats differ or failed");
            golden.put(phase, p.frame, p.rows);
        }
        std::printf("# phase %d: %zu frames\n", phase, plain.frames.size());
    }
    golden.save(a.golden_dir + "/" + a.opts.workload + ".csv", fields);
    return 0;
}

int
run(const Args &a)
{
    const bool held_out = a.opts.scene_seed.has_value();
    std::printf("# provenance %s\n", provenanceJson(a).c_str());
    auto bench = makeBench(a.opts);
    const Golden golden =
        held_out ? Golden{} : Golden::load(a.golden_dir + "/" + a.opts.workload + ".csv");
    if (!held_out && golden.empty())
        throw std::runtime_error("no expected values at " + a.golden_dir + "/" +
                                 a.opts.workload + ".csv");

    // Set-up is short and noisy: report the median of several.
    constexpr int kSetups = 3;
    std::vector<double> setup_s, build_ms;
    for (int i = 0; i < kSetups; ++i) {
        const int64_t t0 = nowNs();
        build_ms.push_back(bench->setup());
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    // The traced run is needed for --trace 1 and, on a held-out seed,
    // as the reference the untraced run is checked against.
    const bool traced_run = a.trace || held_out;
    const RunOut plain = runFor(*bench, a.trace ? a.seconds / 2 : a.seconds, nullptr);
    const double rss_mb = peakRssMb();
    Layers layers;
    RunOut traced;
    if (traced_run)
        traced = runFor(*bench, a.trace ? a.seconds / 2 : 0.0, &layers);

    FrameLedger ledger;
    if (held_out) {
        for (const FrameRecord &f : plain.frames)
            ledger.record(f.ok);
        gateDifferential(plain.first_pass, traced.first_pass, ledger);
    } else {
        gateGolden(golden, a.opts.phase, plain.frames, ledger);
        if (a.trace)
            gateGolden(golden, a.opts.phase, traced.frames, ledger);
    }

    const TailPoint tail = tailPercentile(plain.frame_ms);
    const double first_frames = static_cast<double>(
        std::count_if(plain.first_pass.begin(), plain.first_pass.end(),
                      [](const FrameRecord &f) { return f.ok; }));
    const std::vector<Metric> e2e = {
        {"refs_per_s", plain.refsPerS(), "refs/s"},
        {"frame_ms_p50", median(plain.frame_ms), "ms"},
        {"frame_ms_tail", tail.value, "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"sim_host_mb_per_frame",
         ratio(static_cast<double>(plain.first_host_bytes) / 1e6, first_frames), "MB"},
    };
    printMetrics("end-to-end (untraced run)", e2e);
    std::printf("#   frame samples ms:");
    for (double v : plain.frame_ms)
        std::printf(" %.1f", v);
    std::printf("\n");
    std::printf("#   frame_ms_tail is p%.1f of %zu frame samples (%zu beyond it)\n",
                tail.percentile, tail.samples, tail.beyond);
    std::printf("#   error_rate %.6g (%llu failed of %llu attempted frames)\n",
                ledger.errorRate(), static_cast<unsigned long long>(ledger.failed),
                static_cast<unsigned long long>(ledger.attempted));
    if (!plain.record_ms.empty()) {
        std::printf("#   record_ms_p50 %.6g ms\n", median(plain.record_ms));
        std::printf("#   trace_bytes_per_ref %.6g B/ref\n",
                    ratio(static_cast<double>(plain.trace_bytes),
                          static_cast<double>(plain.recorded_refs)));
    }

    std::vector<Metric> reported = select(e2e, endToEndNames());
    if (a.trace) {
        const std::vector<Metric> all =
            layerMetrics(*bench, plain, traced, layers, median(build_ms));
        printMetrics("per-layer (traced run)", all);
        std::filesystem::create_directories(a.opts.out_dir);
        const std::string stem =
            a.opts.out_dir + "/" + a.opts.workload + "-seed" + std::to_string(a.seed);
        writeSpans(stem + "-spans.jsonl", layers.spans);
        std::ofstream lf(stem + "-layers.json");
        lf << "{\"provenance\": " << provenanceJson(a) << ", \"metrics\": {";
        for (size_t i = 0; i < all.size(); ++i)
            lf << (i ? ", " : "") << jsonString(all[i].name) << ": {\"value\": "
               << jsonNumber(all[i].value) << ", \"unit\": " << jsonString(all[i].unit)
               << "}";
        lf << "}}\n";
        std::printf("# spans and layers written to %s-{spans.jsonl,layers.json}\n",
                    stem.c_str());
        reported = select(all, perLayerNames());
    }
    std::printf("%s\n", resultLine(ledger.failed == 0 && ledger.attempted > 0,
                                   ledger.attempted, ledger.failed, reported)
                            .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        guardBuild();
        return a.write_golden ? writeGolden(a) : run(a);
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
