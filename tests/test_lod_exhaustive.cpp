/**
 * @file
 * Exhaustive check of the LOD threshold table (raster/span_kernel.hpp):
 * for every positive finite float rho2 — subnormals included — plus
 * zeros, negatives, +inf and NaN, the level the thresholds pick equals
 * the level the lambda expressions give, for point/bilinear and for
 * trilinear filtering. About 2^31 log2 calls, so it is opt-in:
 *
 *   ctest -C exhaustive -L exhaustive
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "raster/span_kernel.hpp"

namespace mltc {
namespace {

constexpr uint32_t kMax = kMaxLodLevels - 1;

TEST(LodExhaustive, EveryFloatPicksTheExpressionLevel)
{
    const LodThresholds &t = lodThresholds();
    // Positive floats order like their bit patterns, so walking them in
    // order the threshold levels only grow: a running count of the
    // thresholds passed is levelAt() for every value.
    uint32_t nearest = 0, floor = 0;
    uint64_t mismatches = 0;
    const uint32_t inf = std::bit_cast<uint32_t>(
        std::numeric_limits<float>::infinity());
    for (uint32_t bits = 1; bits <= inf; ++bits) {
        const float rho2 = std::bit_cast<float>(bits);
        while (nearest < kMax && rho2 >= t.nearest.threshold[nearest + 1])
            ++nearest;
        while (floor < kMax && rho2 >= t.floor.threshold[floor + 1])
            ++floor;
        const float lambda = lodLambda(rho2);
        const TrilinearLevels tri = trilinearLevels(lambda, kMax);
        const bool blend = rho2 >= t.blend && floor < kMax;
        if (nearestLevel(lambda, kMax) != nearest || tri.m0 != floor ||
            tri.blend != blend) {
            if (++mismatches <= 10)
                ADD_FAILURE() << "rho2 " << std::hexfloat << rho2
                              << ": thresholds " << nearest << "/" << floor
                              << "/" << blend << ", expressions "
                              << nearestLevel(lambda, kMax) << "/" << tri.m0
                              << "/" << tri.blend;
        }
        ASSERT_EQ(levelAt(t.nearest, kMax, rho2), nearest) << bits;
        ASSERT_EQ(levelAt(t.floor, kMax, rho2), floor) << bits;
    }
    EXPECT_EQ(mismatches, 0u);

    // Not positive, or not a number: the base level, no blend.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (float rho2 : {0.0f, -0.0f, -std::numeric_limits<float>::denorm_min(),
                       -1.0f, -std::numeric_limits<float>::max(),
                       -std::numeric_limits<float>::infinity(), nan, -nan,
                       std::bit_cast<float>(0x7fc12345u),
                       std::bit_cast<float>(0x7f800001u)}) {
        for (uint32_t max_level : {0u, 9u, kMax}) {
            EXPECT_EQ(levelAt(t.nearest, max_level, rho2), 0u);
            EXPECT_EQ(levelAt(t.floor, max_level, rho2), 0u);
            EXPECT_FALSE(rho2 >= t.blend);
            EXPECT_EQ(nearestLevel(lodLambda(rho2), max_level), 0u);
            EXPECT_EQ(trilinearLevels(lodLambda(rho2), max_level).m0, 0u);
        }
    }
    // +inf: the coarsest level.
    const float pinf = std::numeric_limits<float>::infinity();
    for (uint32_t max_level : {0u, 9u, kMax}) {
        EXPECT_EQ(levelAt(t.nearest, max_level, pinf), max_level);
        EXPECT_EQ(levelAt(t.floor, max_level, pinf), max_level);
    }
}

} // namespace
} // namespace mltc
