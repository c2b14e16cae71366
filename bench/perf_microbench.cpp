/**
 * @file
 * Google-benchmark microbenchmarks of the simulator hot paths: L1
 * lookups, the full two-level controller (plain, pull, and with 3C
 * classification enabled), virtual address translation, the FlatSet64
 * trace structure, one exact reuse-distance record(), and one
 * paper-configuration frame of the texture producer (full Village,
 * 1024x768, trilinear). These bound the wall-clock cost of the
 * experiment sweeps.
 *
 * Besides the console table, the run emits a machine-readable
 * `BENCH_perf.json` at the repository root (override the path with
 * MLTC_BENCH_OUT) with ns/op and ops/sec per benchmark — the file the
 * observability perf gate diffs against to prove the disabled-mode
 * hooks cost < 5%.
 */
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/cache_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/reuse_profiler.hpp"
#include "obs/telemetry_server.hpp"
#include "util/build_info.hpp"
#include "raster/rasterizer.hpp"
#include "texture/procedural.hpp"
#include "trace/flat_set.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/village.hpp"

namespace {

using namespace mltc;

/** A small manager with one 256^2 texture for addressing benches. */
TextureManager &
benchTextures()
{
    static TextureManager tm;
    static TextureId tid =
        tm.load("bench", MipPyramid(makeChecker(256, 8, 0xff0000ffu,
                                                0xffffffffu)));
    (void)tid;
    return tm;
}

void
BM_L1Lookup(benchmark::State &state)
{
    L1Config cfg;
    cfg.size_bytes = 16 * 1024;
    L1Cache cache(cfg);
    Rng rng(7);
    std::vector<uint64_t> keys(4096);
    for (auto &k : keys)
        k = (1ull << 32) | (rng.below(1024) << 8) | rng.below(16);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(keys[i & 4095]));
        ++i;
    }
}
BENCHMARK(BM_L1Lookup);

void
BM_AddressTranslation(benchmark::State &state)
{
    TextureManager &tm = benchTextures();
    const TiledLayout &layout = tm.layout(1, TileSpec{16, 4});
    Rng rng(11);
    uint32_t x = 0, y = 0;
    for (auto _ : state) {
        x = (x + 3) & 255;
        y = (y + 1) & 255;
        benchmark::DoNotOptimize(layout.blockKeyOf(1, x, y, 0));
    }
    (void)rng;
}
BENCHMARK(BM_AddressTranslation);

/**
 * One access() call per texel, each a one-ref span into
 * CacheSim::accessBatch(): the rows on this helper (and the other
 * access() rows below) price per-call delivery of the stream.
 */
void
runCacheSimAccess(benchmark::State &state, const CacheSimConfig &cfg)
{
    TextureManager &tm = benchTextures();
    CacheSim sim(tm, cfg);
    sim.bindTexture(1);
    uint32_t x = 0, y = 0;
    for (auto _ : state) {
        x = (x + 1) & 255;
        if (x == 0)
            y = (y + 1) & 255;
        sim.access(x, y, 0);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_CacheSimAccess(benchmark::State &state)
{
    runCacheSimAccess(state, CacheSimConfig::twoLevel(2 * 1024, 2ull << 20));
}
BENCHMARK(BM_CacheSimAccess);

/**
 * The span-vs-per-call gate pattern (docs/batched_access.md): a
 * serpentine walk over a 64x32-texel window. That window is the
 * conflict-free working set of the 16KB L1 under Morton set indexing,
 * so after warm-up every access hits and the rows isolate the
 * *front-end* cost per texel — virtual dispatch, observability-hook
 * check, coalescing filter, address translation, tag probe — which is
 * exactly the cost span delivery amortises and vectorises. The miss
 * path (L2, TLB, host fetch) is shared verbatim by both modes and is
 * priced separately by BM_CacheSimAccess's 25%-miss sweep, so an
 * all-hit pattern here is the honest denominator: miss-heavy patterns
 * would just dilute both rows with identical slow-path time.
 *
 * Per-call delivery (one access() call, i.e. one one-ref span, per
 * texel) goes through the TexelAccessSink interface pointer, as
 * every deployment call site does (rasterizer, trace replay,
 * multi-stream replay all hold sink pointers); laundering the pointer
 * through DoNotOptimize stops the compiler devirtualising a call that
 * no real call site can devirtualise.
 */
constexpr uint32_t kScanW = 64;
constexpr uint32_t kScanRows = 32;

void
runCacheSimScan(benchmark::State &state, const CacheSimConfig &cfg)
{
    TextureManager &tm = benchTextures();
    CacheSim sim(tm, cfg);
    TexelAccessSink *sink = &sim;
    benchmark::DoNotOptimize(sink);
    sink->bindTexture(1);
    uint32_t y = 0;
    for (auto _ : state) {
        for (uint32_t i = 0; i < kScanW; ++i)
            sink->access((y & 1) ? (kScanW - 1 - i) : i, y, 0);
        y = (y + 1) & (kScanRows - 1);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kScanW));
}

void
BM_CacheSimAccessScan(benchmark::State &state)
{
    runCacheSimScan(state,
                    CacheSimConfig::twoLevel(16 * 1024, 2ull << 20));
}
BENCHMARK(BM_CacheSimAccessScan);

/** Per-call scan with the 3C shadow models on (batch-gate denominator). */
void
BM_CacheSimAccessScanClassified(benchmark::State &state)
{
    CacheSimConfig cfg = CacheSimConfig::twoLevel(16 * 1024, 2ull << 20);
    cfg.classify_misses = true;
    runCacheSimScan(state, cfg);
}
BENCHMARK(BM_CacheSimAccessScanClassified);

/**
 * The batched access path: the same serpentine scan delivered as
 * 256-texel spans (four scanlines — a trace-replay chunk) through the
 * same laundered sink pointer. The spans are prebuilt: this row prices
 * 256-ref spans through accessBatch(), against
 * BM_CacheSimAccessScan's one-ref spans — producers own the buffer
 * fill and BM_CacheSimAccessBatchProduce prices that end-to-end.
 * ns/op is per texel access (items-normalised), so this row divides
 * directly against BM_CacheSimAccessScan; the perf gate enforces the
 * >= 2x speedup (check_perf_regression.py --batch-speedup).
 */
void
runCacheSimAccessBatch(benchmark::State &state, const CacheSimConfig &cfg,
                       bool prebuilt)
{
    TextureManager &tm = benchTextures();
    CacheSim sim(tm, cfg);
    TexelAccessSink *sink = &sim;
    benchmark::DoNotOptimize(sink);
    sink->bindTexture(1);
    constexpr uint32_t kSpanRows = 4;
    constexpr uint32_t kSpan = kScanW * kSpanRows;
    constexpr uint32_t kBands = kScanRows / kSpanRows;
    std::vector<std::vector<TexelRef>> spans(kBands);
    for (uint32_t b = 0; b < kBands; ++b)
        for (uint32_t r = 0; r < kSpanRows; ++r) {
            const uint32_t y = b * kSpanRows + r;
            for (uint32_t i = 0; i < kScanW; ++i)
                spans[b].push_back(TexelRef::texel(
                    (y & 1) ? (kScanW - 1 - i) : i, y, 0));
        }
    std::vector<TexelRef> scratch(kSpan);
    uint32_t b = 0;
    for (auto _ : state) {
        if (prebuilt) {
            sink->accessBatch(spans[b]);
        } else {
            // End-to-end: rebuild the span as a producer would before
            // delivering it.
            size_t k = 0;
            for (uint32_t r = 0; r < kSpanRows; ++r) {
                const uint32_t y = b * kSpanRows + r;
                for (uint32_t i = 0; i < kScanW; ++i)
                    scratch[k++] = TexelRef::texel(
                        (y & 1) ? (kScanW - 1 - i) : i, y, 0);
            }
            sink->accessBatch(scratch);
        }
        b = (b + 1) & (kBands - 1);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kSpan));
}

void
BM_CacheSimAccessBatch(benchmark::State &state)
{
    runCacheSimAccessBatch(
        state, CacheSimConfig::twoLevel(16 * 1024, 2ull << 20), true);
}
BENCHMARK(BM_CacheSimAccessBatch);

/**
 * The batched path end to end: span construction (the producer's
 * TexelRef stores) plus delivery, the full deployment cost of batched
 * mode per texel. Gated against BM_CacheSimAccessScan at a lower floor
 * (--batch-produce-speedup): batching must win even when it pays for
 * its own buffering.
 */
void
BM_CacheSimAccessBatchProduce(benchmark::State &state)
{
    runCacheSimAccessBatch(
        state, CacheSimConfig::twoLevel(16 * 1024, 2ull << 20), false);
}
BENCHMARK(BM_CacheSimAccessBatchProduce);

/**
 * Batched path with 3C classification on: the staged loop hands every
 * post-coalescing reference to the shadow models, whose per-reference
 * work dominates the all-hit scan, so the gate bounds this row as
 * no-slower-than BM_CacheSimAccessScanClassified rather than 2x.
 */
void
BM_CacheSimAccessBatchClassified(benchmark::State &state)
{
    CacheSimConfig cfg = CacheSimConfig::twoLevel(16 * 1024, 2ull << 20);
    cfg.classify_misses = true;
    runCacheSimAccessBatch(state, cfg, true);
}
BENCHMARK(BM_CacheSimAccessBatchClassified);

/**
 * BM_CacheSimAccess with the live telemetry plane attached: an enabled
 * MetricsRegistry receiving frame-boundary update batches under the
 * scrape guard, while a background thread renders the /metrics
 * Prometheus exposition at 10 Hz — the contention pattern of a real
 * scraped run. The perf gate holds this within 5% of the plain
 * BM_CacheSimAccess (scripts/check_perf_regression.py --telemetry).
 */
void
BM_CacheSimAccessTelemetry(benchmark::State &state)
{
    TextureManager &tm = benchTextures();
    CacheSim sim(tm, CacheSimConfig::twoLevel(2 * 1024, 2ull << 20));
    sim.bindTexture(1);
    MetricsRegistry registry(true);
    CounterHandle accesses =
        registry.counter("accesses", {{"stream", "0"}});
    GaugeHandle bias = registry.gauge("lod_bias", {{"stream", "0"}});
    std::atomic<bool> stop{false};
    std::thread scraper([&registry, &stop]() {
        while (!stop.load(std::memory_order_relaxed)) {
            benchmark::DoNotOptimize(renderExposition(registry));
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
    });
    uint32_t x = 0, y = 0;
    uint64_t n = 0;
    for (auto _ : state) {
        x = (x + 1) & 255;
        if (x == 0)
            y = (y + 1) & 255;
        sim.access(x, y, 0);
        // A "frame" every 64K accesses: batch the registry update under
        // updateGuard exactly as the runners do at round boundaries.
        if ((++n & 0xffff) == 0) {
            auto guard = registry.updateGuard();
            accesses.set(n);
            bias.set(static_cast<double>(y));
        }
    }
    stop.store(true, std::memory_order_relaxed);
    scraper.join();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheSimAccessTelemetry);

/**
 * BM_CacheSimAccess with the continuous profiler installed and
 * actively sampling at the default 997 Hz: every access runs the
 * enabled branch of its hot Stage (a profiler stack push/pop) while the
 * sampler thread snapshots the stack from outside. This prices the
 * *enabled* mode — the disabled-mode Stage cost (one atomic load +
 * branch) is what the plain BM_CacheSimAccess row holds under the 5%
 * baseline gate. The perf gate bounds this row against the in-run
 * BM_CacheSimAccess via scripts/check_perf_regression.py
 * --profile-threshold.
 */
void
BM_CacheSimAccessProfiled(benchmark::State &state)
{
    TextureManager &tm = benchTextures();
    CacheSim sim(tm, CacheSimConfig::twoLevel(2 * 1024, 2ull << 20));
    sim.bindTexture(1);
    ProfilerConfig pc;
    pc.hz = 997;
    pc.counters = false; // counter reads price leg/pass scopes, not this
    StageProfiler profiler(pc);
    hooks().install(&profiler);
    uint32_t x = 0, y = 0;
    for (auto _ : state) {
        x = (x + 1) & 255;
        if (x == 0)
            y = (y + 1) & 255;
        sim.access(x, y, 0);
    }
    hooks().uninstall(&profiler);
    profiler.stopSampler();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheSimAccessProfiled);

void
BM_CacheSimAccessPull(benchmark::State &state)
{
    runCacheSimAccess(state, CacheSimConfig::pull(16 * 1024));
}
BENCHMARK(BM_CacheSimAccessPull);

/** The explicit-opt-in cost of the 3C shadow models (--miss-classes). */
void
BM_CacheSimAccessClassified(benchmark::State &state)
{
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 * 1024, 2ull << 20);
    cfg.classify_misses = true;
    runCacheSimAccess(state, cfg);
}
BENCHMARK(BM_CacheSimAccessClassified);

/**
 * Two tenants through one shared Utility-policy L2: the per-access
 * cost of the multi-tenant path (queued L1 misses drained every 4,096
 * iterations into the stream-tagged page table, quota-constrained
 * victim selection, per-stream stats).
 */
void
BM_MultiStreamInterference(benchmark::State &state)
{
    static TextureManager tm_a;
    static TextureManager tm_b;
    static TextureId tid_a = tm_a.load(
        "tenant_a", MipPyramid(makeChecker(256, 8, 0xff0000ffu, 0xffffffffu)));
    static TextureId tid_b = tm_b.load(
        "tenant_b", MipPyramid(makeChecker(256, 8, 0xff00ff00u, 0xff000000u)));
    std::vector<TextureManager *> managers{&tm_a, &tm_b};
    L2Config l2cfg;
    l2cfg.size_bytes = 256ull << 10;
    L2TextureCache l2(managers, l2cfg, L2SharePolicy::Utility);
    CacheSim sim_a(tm_a, CacheSimConfig::pull(16 * 1024));
    CacheSim sim_b(tm_b, CacheSimConfig::pull(16 * 1024));
    sim_a.attachSharedL2(&l2, 0);
    sim_b.attachSharedL2(&l2, 1);
    sim_a.bindTexture(tid_a);
    sim_b.bindTexture(tid_b);
    uint32_t xa = 0, ya = 0, xb = 0, yb = 0;
    uint32_t n = 0;
    for (auto _ : state) {
        xa = (xa + 1) & 255;
        if (xa == 0)
            ya = (ya + 1) & 255;
        sim_a.access(xa, ya, 0);
        // The neighbor strides a tile at a time: maximal block churn.
        xb = (xb + 16) & 255;
        if (xb < 16)
            yb = (yb + 16) & 255;
        sim_b.access(xb, yb, 0);
        // A shared-L2 sim queues its L1 misses until endFrame().
        if (++n % 4096 == 0) {
            sim_a.endFrame();
            sim_b.endFrame();
        }
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MultiStreamInterference);

void
BM_FlatSetInsert(benchmark::State &state)
{
    FlatSet64 set(1 << 16);
    Rng rng(3);
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(set.insert(i++ & 0xffff));
        if ((i & 0xfffff) == 0)
            set.clear();
    }
}
BENCHMARK(BM_FlatSetInsert);

/**
 * One exact reuse-distance record() — the cost a serving tenant's
 * utility-L2 tracker adds to every L1 miss. The tracker first sees all
 * 64K keys of the population, so the live stack holds ~64K units, then
 * the timed loop replays a seeded stream with mixed distances: a hot
 * set (short), a looping sweep (mid) and uniform picks over the whole
 * population (long). Keys are scrambled so none is a small integer.
 */
void
BM_ReuseTrackerRecord(benchmark::State &state)
{
    constexpr uint64_t kKeys = 1 << 16;
    const auto key = [](uint64_t k) {
        return (k * 0x9e3779b97f4a7c15ull) ^ 0x5bd1e995ull;
    };
    Rng rng(17);
    std::vector<uint64_t> stream(1 << 20);
    for (size_t i = 0; i < stream.size(); ++i) {
        const uint64_t pick = rng.below(10);
        if (pick < 5)
            stream[i] = key(rng.below(256));
        else if (pick < 8)
            stream[i] = key(256 + i % 8192);
        else
            stream[i] = key(rng.below(kKeys));
    }
    ReuseDistanceTracker tracker(1.0);
    for (uint64_t k = 0; k < kKeys; ++k)
        tracker.record(key(k));
    size_t i = 0;
    for (auto _ : state)
        tracker.record(stream[i++ & (stream.size() - 1)]);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReuseTrackerRecord);

/**
 * One frame of the texture producer at the paper configuration: the
 * full Village at 1024x768, trilinear, into a NullSink. Iterations walk
 * twelve frames spread over the animation.
 */
void
BM_RenderPaperFrame(benchmark::State &state)
{
    static const Workload wl = buildVillage();
    Rasterizer raster(1024, 768);
    raster.setFilter(FilterMode::Trilinear);
    NullSink sink;
    raster.setSink(&sink);
    int i = 0;
    for (auto _ : state) {
        const int frame = (i++ % 12) * wl.default_frames / 12;
        Camera cam = wl.cameraAtFrame(frame, wl.default_frames,
                                      1024.0f / 768.0f);
        benchmark::DoNotOptimize(
            raster.renderFrame(wl.scene, cam, *wl.textures));
    }
}
BENCHMARK(BM_RenderPaperFrame)->Unit(benchmark::kMillisecond);

/**
 * Console reporting plus capture of every per-iteration run so main()
 * can emit the BENCH_perf.json summary.
 */
class JsonCaptureReporter final : public benchmark::ConsoleReporter
{
  public:
    struct Result
    {
        std::string name;
        double ns_per_op = 0.0;
        double ops_per_sec = 0.0;
    };

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            if (r.run_type != Run::RT_Iteration || r.error_occurred)
                continue;
            Result res;
            res.name = r.benchmark_name();
            // Prefer the items-normalised rate so batched rows (many
            // accesses per benchmark iteration) stay comparable with
            // scalar rows: ns/op is always per processed item.
            const auto items = r.counters.find("items_per_second");
            if (items != r.counters.end() &&
                static_cast<double>(items->second) > 0.0) {
                res.ops_per_sec = static_cast<double>(items->second);
                res.ns_per_op = 1e9 / res.ops_per_sec;
            } else if (r.iterations > 0 && r.real_accumulated_time > 0.0) {
                const double s_per_op =
                    r.real_accumulated_time /
                    static_cast<double>(r.iterations);
                res.ns_per_op = s_per_op * 1e9;
                res.ops_per_sec = 1.0 / s_per_op;
            }
            results_.push_back(std::move(res));
        }
        ConsoleReporter::ReportRuns(runs);
    }

    const std::vector<Result> &results() const { return results_; }

  private:
    std::vector<Result> results_;
};

/** BENCH_perf.json destination: MLTC_BENCH_OUT or the repo root. */
std::string
benchOutPath()
{
    if (const char *env = std::getenv("MLTC_BENCH_OUT"); env && *env)
        return env;
#ifdef MLTC_REPO_ROOT
    return std::string(MLTC_REPO_ROOT) + "/BENCH_perf.json";
#else
    return "BENCH_perf.json";
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    mltc::JsonWriter w;
    w.beginObject();
    // Provenance first: a checked-in baseline says what produced it.
    w.key("build");
    mltc::appendBuildInfo(w);
    w.key("benchmarks").beginArray();
    for (const auto &res : reporter.results()) {
        w.beginObject()
            .kv("name", res.name)
            .kv("ns_per_op", res.ns_per_op)
            .kv("ops_per_sec", res.ops_per_sec)
            .endObject();
    }
    w.endArray();
    // The headline number the sweeps scale with: simulated texel
    // accesses per second through the two-level controller.
    for (const auto &res : reporter.results())
        if (res.name == "BM_CacheSimAccess")
            w.kv("accesses_per_sec", res.ops_per_sec);
    w.endObject();

    const std::string path = benchOutPath();
    if (std::FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "%s\n", w.str().c_str());
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
    } else {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
        return 1;
    }
    return 0;
}
