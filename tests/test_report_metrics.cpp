/**
 * @file
 * Unit tests for the `report --metrics` summarization library
 * (obs/metrics_summary): counter folding, gauge series statistics,
 * mirrored-log-row handling and typed error paths.
 */
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <unistd.h>

#include "obs/metrics_summary.hpp"
#include "util/error.hpp"

namespace mltc {
namespace {

TEST(MetricsSummary, CountersKeepTheLastRow)
{
    std::istringstream in(
        "{\"frame\":0,\"counters\":{\"accesses\":10,\"misses\":2}}\n"
        "{\"frame\":1,\"counters\":{\"accesses\":25,\"misses\":3}}\n");
    const MetricsSummary s = summarizeMetricsStream(in);
    EXPECT_EQ(s.frame_rows, 2u);
    EXPECT_EQ(s.log_rows, 0u);
    ASSERT_EQ(s.final_counters.size(), 2u);
    EXPECT_DOUBLE_EQ(s.final_counters.at("accesses"), 25.0);
    EXPECT_DOUBLE_EQ(s.final_counters.at("misses"), 3.0);
}

TEST(MetricsSummary, GaugesSummarizeAcrossFrames)
{
    std::istringstream in(
        "{\"frame\":0,\"gauges\":{\"hit_rate\":0.5}}\n"
        "{\"frame\":1,\"gauges\":{\"hit_rate\":0.9}}\n"
        "{\"frame\":2,\"gauges\":{\"hit_rate\":0.7}}\n");
    const MetricsSummary s = summarizeMetricsStream(in);
    ASSERT_EQ(s.gauges.count("hit_rate"), 1u);
    const SeriesSummary &g = s.gauges.at("hit_rate");
    EXPECT_DOUBLE_EQ(g.min, 0.5);
    EXPECT_DOUBLE_EQ(g.max, 0.9);
    EXPECT_NEAR(g.mean, 0.7, 1e-12);
}

TEST(MetricsSummary, LogRowsAndBlankLinesAreSkipped)
{
    std::istringstream in(
        "{\"level\":\"info\",\"msg\":\"boot\"}\n"
        "\n"
        "{\"frame\":0,\"counters\":{\"accesses\":1}}\n"
        "{\"level\":\"warn\",\"msg\":\"retry\"}\n");
    const MetricsSummary s = summarizeMetricsStream(in);
    EXPECT_EQ(s.frame_rows, 1u);
    EXPECT_EQ(s.log_rows, 2u);
    EXPECT_DOUBLE_EQ(s.final_counters.at("accesses"), 1.0);
}

TEST(MetricsSummary, MalformedRowReportsLineNumber)
{
    std::istringstream in(
        "{\"frame\":0,\"counters\":{\"accesses\":1}}\n"
        "{not json\n");
    try {
        summarizeMetricsStream(in, "metrics.jsonl");
        FAIL() << "corrupt row must throw";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::Corrupt);
        EXPECT_NE(std::string(e.what()).find("metrics.jsonl line 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MetricsSummary, MissingFileThrowsIo)
{
    const std::string path = testing::TempDir() + "does_not_exist." +
                             std::to_string(getpid()) + ".jsonl";
    try {
        summarizeMetricsFile(path);
        FAIL() << "missing file must throw";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::Io);
    }
}

TEST(MetricsSummary, EmptyStreamRendersZeroRows)
{
    std::istringstream in("");
    const MetricsSummary s = summarizeMetricsStream(in);
    EXPECT_EQ(s.frame_rows, 0u);
    EXPECT_EQ(s.log_rows, 0u);
    const std::string text = renderMetricsSummary(s);
    EXPECT_NE(text.find("0 frame rows"), std::string::npos) << text;
}

TEST(MetricsSummary, RenderListsCountersAndGauges)
{
    std::istringstream in(
        "{\"frame\":0,\"counters\":{\"host_bytes\":4096},"
        "\"gauges\":{\"hit_rate\":0.25}}\n"
        "{\"level\":\"info\",\"msg\":\"x\"}\n");
    const std::string text =
        renderMetricsSummary(summarizeMetricsStream(in));
    EXPECT_NE(text.find("1 frame rows (+1 log rows)"), std::string::npos)
        << text;
    EXPECT_NE(text.find("host_bytes"), std::string::npos) << text;
    EXPECT_NE(text.find("4096"), std::string::npos) << text;
    EXPECT_NE(text.find("hit_rate"), std::string::npos) << text;
    EXPECT_NE(text.find("0.2500"), std::string::npos) << text;
}

MetricsSummary
summaryOf(const char *jsonl)
{
    std::istringstream in(jsonl);
    return summarizeMetricsStream(in);
}

TEST(MetricsDiff, OneSidedSeriesIsFullScale)
{
    const MetricsSummary a = summaryOf(
        "{\"frame\":0,\"counters\":{\"hits\":10,\"old\":1},"
        "\"gauges\":{\"rate\":0.5}}\n");
    const MetricsSummary b = summaryOf(
        "{\"frame\":0,\"counters\":{\"hits\":8,\"new\":2},"
        "\"gauges\":{\"rate\":0.5}}\n");
    const MetricsDiff d = diffMetricsSummaries(a, b);
    EXPECT_EQ(d.only_a, 1u);
    EXPECT_EQ(d.only_b, 1u);
    EXPECT_DOUBLE_EQ(d.max_rel, 1.0);
    std::map<std::string, double> rel;
    for (const MetricsDiffRow &row : d.rows)
        rel[row.key] = row.rel;
    EXPECT_DOUBLE_EQ(rel.at("old"), 1.0);
    EXPECT_DOUBLE_EQ(rel.at("new"), 1.0);
    EXPECT_DOUBLE_EQ(rel.at("hits"), 0.2); // |8-10| / 10
    EXPECT_DOUBLE_EQ(rel.at("mean:rate"), 0.0);
    const std::string text = renderMetricsDiff(d);
    EXPECT_NE(text.find("1 series only in A, 1 only in B"),
              std::string::npos)
        << text;
}

TEST(MetricsDiff, DeltaIsSymmetric)
{
    const MetricsSummary a = summaryOf(
        "{\"frame\":0,\"counters\":{\"hits\":3,\"only\":4}}\n");
    const MetricsSummary b = summaryOf(
        "{\"frame\":0,\"counters\":{\"hits\":12}}\n");
    const MetricsDiff ab = diffMetricsSummaries(a, b);
    const MetricsDiff ba = diffMetricsSummaries(b, a);
    EXPECT_DOUBLE_EQ(ab.max_rel, ba.max_rel);
    EXPECT_EQ(ab.only_a, ba.only_b);
    EXPECT_EQ(ab.only_b, ba.only_a);
    std::map<std::string, double> rel_ab, rel_ba;
    for (const MetricsDiffRow &row : ab.rows)
        rel_ab[row.key] = row.rel;
    for (const MetricsDiffRow &row : ba.rows)
        rel_ba[row.key] = row.rel;
    EXPECT_EQ(rel_ab, rel_ba);
    EXPECT_DOUBLE_EQ(rel_ab.at("hits"), 0.75);
}

} // namespace
} // namespace mltc
