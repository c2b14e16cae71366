/**
 * @file
 * Unit tests for the Histogram utility.
 */
#include <gtest/gtest.h>

#include "util/histogram.hpp"

namespace mltc {
namespace {

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_DOUBLE_EQ(h.cdf(10), 0.0);
}

TEST(Histogram, BasicStats)
{
    Histogram h;
    for (uint64_t v : {1u, 2u, 2u, 3u, 4u})
        h.add(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.max(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), 12.0 / 5.0);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(5), 0u);
}

TEST(Histogram, Percentiles)
{
    Histogram h;
    for (uint64_t v = 1; v <= 100; ++v)
        h.add(v);
    EXPECT_EQ(h.percentile(0.5), 50u);
    EXPECT_EQ(h.percentile(0.99), 99u);
    EXPECT_EQ(h.percentile(1.0), 100u);
    EXPECT_EQ(h.percentile(0.01), 1u);
}

TEST(Histogram, CdfMonotone)
{
    Histogram h;
    for (uint64_t v : {0u, 1u, 1u, 5u, 9u})
        h.add(v);
    EXPECT_DOUBLE_EQ(h.cdf(0), 0.2);
    EXPECT_DOUBLE_EQ(h.cdf(1), 0.6);
    EXPECT_DOUBLE_EQ(h.cdf(4), 0.6);
    EXPECT_DOUBLE_EQ(h.cdf(9), 1.0);
}

TEST(Histogram, OverflowBucketAggregates)
{
    Histogram h(10);
    h.add(5);
    h.add(100);
    h.add(200);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.max(), 200u);
    EXPECT_EQ(h.bucket(100), 2u); // both overflow samples
    EXPECT_EQ(h.bucket(200), 2u); // same overflow bucket
    EXPECT_EQ(h.percentile(1.0), 11u); // cap+1 marker
}

TEST(Histogram, EmptyPercentileIsZeroAtEveryQuantile)
{
    Histogram h;
    for (double q : {0.0, 0.01, 0.5, 0.99, 1.0})
        EXPECT_EQ(h.percentile(q), 0u) << "q=" << q;
}

TEST(Histogram, SingleBucketGeometry)
{
    // cap 0: one real bucket (value 0) plus the overflow bucket.
    Histogram h(0);
    h.add(0);
    h.add(0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
    EXPECT_DOUBLE_EQ(h.cdf(0), 1.0);
    h.add(7); // overflows the single bucket
    EXPECT_EQ(h.bucket(7), 1u);
    EXPECT_EQ(h.percentile(1.0), 1u); // cap+1 marker
    EXPECT_EQ(h.max(), 7u);
}

TEST(Histogram, MergeOfDisjointRanges)
{
    Histogram lo, hi;
    for (uint64_t v = 1; v <= 10; ++v)
        lo.add(v);
    for (uint64_t v = 101; v <= 110; ++v)
        hi.add(v);
    lo.merge(hi);
    EXPECT_EQ(lo.count(), 20u);
    EXPECT_EQ(lo.max(), 110u);
    EXPECT_EQ(lo.sum(), 55u + 1055u);
    EXPECT_EQ(lo.bucket(5), 1u);
    EXPECT_EQ(lo.bucket(105), 1u);
    EXPECT_EQ(lo.bucket(50), 0u); // the gap stays empty
    EXPECT_EQ(lo.percentile(0.5), 10u);
    EXPECT_EQ(lo.percentile(1.0), 110u);
    EXPECT_DOUBLE_EQ(lo.cdf(10), 0.5);
}

TEST(Histogram, MergeRejectsCapMismatch)
{
    Histogram a(10);
    Histogram b(20);
    b.add(3);
    try {
        a.merge(b);
        FAIL() << "cap mismatch must throw";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::BadArgument);
    }
    EXPECT_EQ(a.count(), 0u); // unchanged on rejection
}

TEST(Histogram, ClearResets)
{
    Histogram h;
    h.add(7);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucket(7), 0u);
    h.add(3);
    EXPECT_EQ(h.count(), 1u);
}

} // namespace
} // namespace mltc
