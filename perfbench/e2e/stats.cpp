#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

TailPoint
tailPercentile(std::vector<double> samples, size_t min_beyond)
{
    TailPoint t;
    t.samples = samples.size();
    if (samples.empty())
        return t;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    // 0-based index k has n - 1 - k samples ranked above it.
    const size_t k = n > min_beyond ? n - 1 - min_beyond : n - 1;
    t.value = samples[k];
    t.beyond = n - 1 - k;
    t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
    return t;
}

int64_t
selfNs(const std::vector<Span> &spans, uint32_t id)
{
    int64_t self = 0;
    for (const Span &s : spans) {
        if (s.id == id)
            self += s.dur_ns;
        else if (s.parent == id)
            self -= s.dur_ns;
    }
    return self;
}

const std::vector<std::string> &
endToEndNames()
{
    static const std::vector<std::string> names = {
        "refs_per_s", "frame_ms_p50", "frame_ms_tail",
        "setup_s",    "peak_rss_mb",  "sim_host_mb_per_frame",
    };
    return names;
}

const std::vector<std::string> &
perLayerNames()
{
    static const std::vector<std::string> names = {
        "workload.build_ms",
        "raster.self_ns_per_ref",
        "raster.self_ms_per_frame",
        "raster.refs_per_frame",
        "raster.pixels_textured_per_frame",
        "raster.triangles_drawn_per_frame",
        "raster.binds_per_frame",
        "raster.batches_per_frame",
        "raster.refs_per_batch",
        "core.access_ns_per_ref",
        "core.endframe_us",
        "core.accesses",
        "core.l1_miss_rate",
        "core.l2_full_hit_rate",
        "core.l2_partial_rate",
        "core.host_bytes_per_frame",
        "core.victim_steps_max",
        "bench.trace_overhead",
    };
    return names;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
resultLine(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(metrics[i].name) + ": {\"value\": " +
               jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return out + "}}";
}

} // namespace perfbench
