/**
 * @file
 * The benchmark's own arithmetic: percentiles, span self time, the
 * failure ledger and the result line. Kept free of simulator types so
 * tests/test_stats.cpp can check it in isolation.
 */
#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Median of @p samples (mean of the middle two for even counts); 0 when empty. */
double median(std::vector<double> samples);

/**
 * The tail point of a timing distribution: the highest percentile that
 * still has at least @p min_beyond samples above it (nearest rank, so
 * with n samples it is sample n - min_beyond in ascending order). With
 * n <= min_beyond no such percentile exists and the maximum is reported
 * with beyond = 0, so a caller can tell the two cases apart.
 */
struct TailPoint
{
    double value = 0.0;
    double percentile = 0.0; ///< 100 * rank / n
    size_t samples = 0;
    size_t beyond = 0; ///< samples ranked above the reported one
};

TailPoint tailPercentile(std::vector<double> samples, size_t min_beyond = 10);

/**
 * One timed interval of the traced run. A span made of many calls (a
 * sink decorator's accessBatch calls in one frame) keeps the sum of
 * their durations in dur_ns and their number in calls; start_ns is the
 * first call.
 */
struct Span
{
    uint32_t id = 0;
    uint32_t parent = 0; ///< 0 = root
    std::string name;
    int frame = -1;
    int64_t start_ns = 0;
    int64_t dur_ns = 0;
    uint64_t calls = 1;
};

/**
 * Self time of span @p id: its duration minus the durations of its
 * direct children. Grandchildren run inside their parent's interval,
 * so subtracting them again would count their time twice.
 */
int64_t selfNs(const std::vector<Span> &spans, uint32_t id);

/** Frames attempted and failed; a frame fails on a throw, a quarantine or a stats mismatch. */
struct FrameLedger
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    double errorRate() const
    {
        return attempted ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
    }
};

/** Per-frame expected counters: one row of unsigned fields per consumer. */
using StatRow = std::vector<uint64_t>;

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Names BENCHMARK.json declares, in declaration order. */
const std::vector<std::string> &endToEndNames();
const std::vector<std::string> &perLayerNames();

/**
 * The result line: {"correct", "attempted", "failed", "metrics"} with
 * every value printed with all its significant digits.
 */
std::string resultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric> &metrics);

/** A double as a JSON number with all 17 significant digits. */
std::string jsonNumber(double v);

/** @p s as a quoted JSON string. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
