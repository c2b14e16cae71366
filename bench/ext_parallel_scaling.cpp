/**
 * @file
 * Extension: wall-clock scaling of the parallel sweep executor.
 *
 * Runs a Tables-5/6-style L2 hit-rate sweep (eight independent legs:
 * Village, bilinear x trilinear, 1/2/4/8 MB L2) at jobs 1, 2, 4 and 8
 * and reports the speedup curve. Jobs N runs the legs on N threads: a
 * pool of its own with N - 1 workers beside the calling thread
 * (jobsPool()); jobs 1 runs them serially. Each leg builds its own
 * Village, so a leg is the same unit of work at every jobs value. The
 * per-leg results are also
 * cross-checked across jobs values — the speedup must come with
 * byte-identical answers (docs/parallelism.md).
 *
 * The curve is merged into BENCH_perf.json (MLTC_BENCH_OUT overrides
 * the path) as wall-clock rows named `BM_ParallelSweep/jobs:N`,
 * preserving whatever perf_microbench wrote there. The perf gate
 * (scripts/check_perf_regression.py) deliberately ignores these rows:
 * wall-clock over N threads depends on the machine's core count, not
 * on code quality.
 *
 * The >= 3x-at-8-jobs acceptance assertion only fires on hardware that
 * can deliver it (>= 8 hardware threads) or when MLTC_REQUIRE_SPEEDUP=1
 * forces it; on smaller machines the bench still emits the measured
 * curve.
 */
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sim/multi_config_runner.hpp"
#include "util/json.hpp"
#include "workload/registry.hpp"

namespace {

using namespace mltc;
using namespace mltc::bench;

struct LegSpec
{
    FilterMode filter;
    uint64_t l2_mb;
};

/** Measured hit rates of one leg; compared across worker counts. */
struct LegRates
{
    double h1 = 0, h2f = 0;
};

/** Run the eight-leg sweep at @p jobs; returns wall ms. */
double
runSweepAt(unsigned jobs, const std::vector<LegSpec> &legs, int n_frames,
           std::vector<LegRates> &rates)
{
    rates.assign(legs.size(), LegRates{});
    const std::unique_ptr<ThreadPool> pool = jobsPool(jobs);
    SweepExecutor sweep(pool.get());
    for (size_t i = 0; i < legs.size(); ++i) {
        const LegSpec spec = legs[i];
        sweep.addLeg("leg" + std::to_string(i), [&, i, spec](LegContext &) {
            const Workload wl = buildWorkload("village");
            DriverConfig cfg;
            cfg.filter = spec.filter;
            cfg.frames = n_frames;
            MultiConfigRunner runner(wl, cfg);
            runner.addSim(
                CacheSimConfig::twoLevel(2 * 1024, spec.l2_mb << 20),
                std::to_string(spec.l2_mb) + "MB");
            runner.run();
            const CacheFrameStats &t = runner.sims()[0]->totals();
            rates[i] = {t.l1HitRate(), t.l2FullHitRate()};
        });
    }
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = runLegs(sweep);
    const auto t1 = std::chrono::steady_clock::now();
    if (!ok)
        throw Exception(ErrorCode::Corrupt, "scaling sweep leg failed");
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/** BENCH_perf.json destination: MLTC_BENCH_OUT or the repo root. */
std::string
benchOutPath()
{
    const std::string env = envString("MLTC_BENCH_OUT", "");
    if (!env.empty())
        return env;
#ifdef MLTC_REPO_ROOT
    return std::string(MLTC_REPO_ROOT) + "/BENCH_perf.json";
#else
    return "BENCH_perf.json";
#endif
}

/**
 * Read-modify-write BENCH_perf.json: keep every benchmark row that is
 * not a BM_ParallelSweep row (perf_microbench's rows in particular),
 * replace the sweep rows with this run's measurements, and re-emit any
 * top-level scalar keys.
 */
void
mergeIntoBenchJson(const std::string &path,
                   const std::vector<std::pair<unsigned, double>> &curve)
{
    JsonValue existing;
    {
        std::ifstream in(path, std::ios::binary);
        if (in.good()) {
            std::ostringstream ss;
            ss << in.rdbuf();
            try {
                existing = parseJson(ss.str());
            } catch (const Exception &) {
                existing = JsonValue::makeNull(); // rewrite corrupt file
            }
        }
    }

    JsonWriter w;
    w.beginObject();
    w.key("benchmarks").beginArray();
    if (const JsonValue *rows = existing.find("benchmarks"))
        if (rows->isArray())
            for (const JsonValue &row : rows->asArray()) {
                const JsonValue *name = row.find("name");
                if (name && name->isString() &&
                    name->asString().rfind("BM_ParallelSweep", 0) == 0)
                    continue;
                const JsonValue *ns = row.find("ns_per_op");
                const JsonValue *ops = row.find("ops_per_sec");
                if (!name || !name->isString() || !ns || !ns->isNumber())
                    continue;
                w.beginObject()
                    .kv("name", name->asString())
                    .kv("ns_per_op", ns->asNumber())
                    .kv("ops_per_sec",
                        ops && ops->isNumber() ? ops->asNumber() : 0.0)
                    .endObject();
            }
    for (const auto &[jobs, ms] : curve) {
        const double ns = ms * 1e6;
        w.beginObject()
            .kv("name", "BM_ParallelSweep/jobs:" + std::to_string(jobs))
            .kv("ns_per_op", ns)
            .kv("ops_per_sec", ns > 0 ? 1e9 / ns : 0.0)
            .endObject();
    }
    w.endArray();
    if (const JsonValue *aps = existing.find("accesses_per_sec"))
        if (aps->isNumber())
            w.kv("accesses_per_sec", aps->asNumber());
    if (!curve.empty() && curve.front().second > 0.0)
        w.kv("parallel_speedup_at_8_jobs",
             curve.front().second / curve.back().second);
    w.endObject();

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << w.str() << "\n";
    if (!out.good())
        throw Exception(ErrorCode::Io, "cannot write " + path);
}

} // namespace

int
main(int argc, char **argv)
{
    if (const int status = rejectFlags(argc, argv))
        return status;

    banner("Extension: parallel sweep scaling",
           "Wall-clock speedup of an 8-leg L2 hit-rate sweep at jobs "
           "1/2/4/8 (results cross-checked across jobs values)");

    const int n_frames = frames(6);
    std::vector<LegSpec> legs;
    for (FilterMode f : {FilterMode::Bilinear, FilterMode::Trilinear})
        for (uint64_t mb : {1ull, 2ull, 4ull, 8ull})
            legs.push_back({f, mb});

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("%zu legs, %d frames each, %u hardware threads\n\n",
                legs.size(), n_frames, hw);

    std::vector<LegRates> reference;
    std::vector<std::pair<unsigned, double>> curve;
    TextTable table({"jobs", "wall ms", "speedup", "efficiency"});
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        std::vector<LegRates> rates;
        const double ms = runSweepAt(jobs, legs, n_frames, rates);
        if (jobs == 1)
            reference = rates;
        // The whole point of the executor: more threads, same numbers.
        for (size_t i = 0; i < rates.size(); ++i)
            if (rates[i].h1 != reference[i].h1 ||
                rates[i].h2f != reference[i].h2f) {
                std::fprintf(stderr,
                             "FAIL: leg %zu rates differ at jobs=%u\n", i,
                             jobs);
                return 1;
            }
        curve.emplace_back(jobs, ms);
        const double speedup = curve.front().second / ms;
        table.addRow({std::to_string(jobs), formatDouble(ms, 1),
                      formatDouble(speedup, 2) + "x",
                      formatPercent(speedup / jobs)});
    }
    table.print();

    const double speedup8 = curve.front().second / curve.back().second;
    const bool require =
        envInt("MLTC_REQUIRE_SPEEDUP", 0) != 0 || hw >= 8;
    if (require && speedup8 < 3.0) {
        std::fprintf(stderr,
                     "FAIL: speedup at 8 jobs is %.2fx (< 3x) with %u "
                     "hardware threads\n",
                     speedup8, hw);
        return 1;
    }
    if (!require)
        std::printf("(speedup gate skipped: %u hardware threads; set "
                    "MLTC_REQUIRE_SPEEDUP=1 to force)\n",
                    hw);

    const std::string path = benchOutPath();
    mergeIntoBenchJson(path, curve);
    std::printf("merged BM_ParallelSweep/jobs:{1,2,4,8} into %s\n", path.c_str());
    return 0;
}
