/**
 * @file
 * Checks the benchmark's own arithmetic: the tail-percentile rule and
 * its reported sample count, span self time with nested spans, the
 * failure ledger fed by a deliberately wrong expected value, and that
 * the metric names the benchmark emits are the ones BENCHMARK.json
 * declares (path given as the first argument).
 *
 *   perfbench_tests path/to/BENCHMARK.json
 */
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "golden.hpp"
#include "stats.hpp"
#include "util/json.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++g_failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

void
checkNear(double got, double want, const std::string &what)
{
    check(std::fabs(got - want) < 1e-9,
          what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

std::vector<double>
ramp(size_t n)
{
    // 1..n in scrambled order: the rule must not depend on input order.
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i)
        v.push_back(static_cast<double>((i * 7) % n + 1));
    return v;
}

void
testTail()
{
    // 40 samples: the 30th smallest has exactly 10 above it -> p75.
    TailPoint t = tailPercentile(ramp(40));
    checkNear(t.value, 30, "tail(40).value");
    checkNear(t.percentile, 75, "tail(40).percentile");
    check(t.samples == 40 && t.beyond == 10, "tail(40) counts");

    // 11 samples: the smallest one still has 10 above it.
    t = tailPercentile(ramp(11));
    checkNear(t.value, 1, "tail(11).value");
    check(t.beyond == 10 && t.samples == 11, "tail(11) counts");

    // 100 samples -> p90.
    t = tailPercentile(ramp(100));
    checkNear(t.value, 90, "tail(100).value");
    checkNear(t.percentile, 90, "tail(100).percentile");

    // Too few samples: the maximum, flagged by beyond == 0.
    t = tailPercentile(ramp(6));
    checkNear(t.value, 6, "tail(6).value");
    checkNear(t.percentile, 100, "tail(6).percentile");
    check(t.beyond == 0 && t.samples == 6, "tail(6) counts");

    t = tailPercentile({});
    check(t.samples == 0 && t.value == 0, "tail(empty)");

    checkNear(median({3, 1, 2}), 2, "median odd");
    checkNear(median({4, 1, 2, 3}), 2.5, "median even");
}

void
testSelfTime()
{
    // frame(1) 100 ns
    //   render(2) 80 ns
    //     sink(3) 50 ns over 4 calls
    //       inner(4) 20 ns         nested inside sink
    //   endframe(5) 15 ns
    std::vector<Span> spans = {
        {1, 0, "frame", 0, 0, 100, 1},   {2, 1, "render", 0, 0, 80, 1},
        {3, 2, "sink", 0, 5, 50, 4},     {4, 3, "inner", 0, 10, 20, 1},
        {5, 1, "endframe", 0, 80, 15, 1},
    };
    check(selfNs(spans, 1) == 5, "frame self = 100 - 80 - 15");
    check(selfNs(spans, 2) == 30, "render self = 80 - 50 (grandchild not subtracted)");
    check(selfNs(spans, 3) == 30, "sink self = 50 - 20");
    check(selfNs(spans, 4) == 20, "leaf self = its duration");
    check(selfNs(spans, 9) == 0, "unknown span");
}

void
testLedger()
{
    mltc::CacheFrameStats good;
    good.accesses = 1000;
    good.l1_misses = 40;
    good.host_bytes = 4096;

    Golden golden;
    for (int f = 0; f < 4; ++f)
        golden.put(0, f, {statRow(good)});
    // Deliberately wrong expected value for frame 2.
    mltc::CacheFrameStats wrong = good;
    wrong.host_bytes += 1;
    golden.put(0, 2, {statRow(wrong)});

    FrameLedger ledger;
    for (int f = 0; f < 5; ++f) { // frame 4 has no expected value
        const std::vector<StatRow> *want = golden.find(0, f);
        ledger.record(want != nullptr && *want == std::vector<StatRow>{statRow(good)});
    }
    ledger.record(false); // a frame that threw
    check(ledger.attempted == 6, "ledger attempted");
    check(ledger.failed == 3, "ledger failed: mismatch + missing + throw");
    checkNear(ledger.errorRate(), 0.5, "error_rate");
    checkNear(FrameLedger{}.errorRate(), 0, "error_rate with no frames");
}

void
testResultLine()
{
    const std::string line =
        resultLine(true, 7, 0, {{"frame_ms_p50", 1.0 / 3.0, "ms"}});
    const mltc::JsonValue v = mltc::parseJson(line);
    check(v.at("correct").asBool(), "result correct");
    checkNear(v.at("attempted").asNumber(), 7, "result attempted");
    const mltc::JsonValue &m = v.at("metrics").at("frame_ms_p50");
    check(m.at("value").asNumber() == 1.0 / 3.0, "value keeps all digits");
    check(m.at("unit").asString() == "ms", "unit");
}

void
testNames(const char *path)
{
    std::ifstream in(path);
    check(static_cast<bool>(in), std::string("open ") + path);
    if (!in)
        return;
    std::stringstream ss;
    ss << in.rdbuf();
    const mltc::JsonValue doc = mltc::parseJson(ss.str());
    auto names = [&](const char *key) {
        std::vector<std::string> out;
        for (const mltc::JsonValue &m : doc.at(key).asArray())
            out.push_back(m.at("name").asString());
        return out;
    };
    check(names("end_to_end") == endToEndNames(), "end_to_end names match BENCHMARK.json");
    check(names("per_layer") == perLayerNames(), "per_layer names match BENCHMARK.json");
}

} // namespace

int
main(int argc, char **argv)
{
    testTail();
    testSelfTime();
    testLedger();
    testResultLine();
    if (argc > 1)
        testNames(argv[1]);
    else
        check(false, "usage: perfbench_tests path/to/BENCHMARK.json");
    std::printf("%s (%d failures)\n", g_failures ? "FAILED" : "ok", g_failures);
    return g_failures ? 1 : 0;
}
