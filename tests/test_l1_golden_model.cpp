/**
 * @file
 * Differential test: L1Cache against a transparent map-based
 * set-associative LRU reference, across associativities and sizes.
 */
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "core/l1_cache.hpp"
#include "util/rng.hpp"

namespace mltc {
namespace {

/** Reference set-associative LRU cache with the same set indexing. */
class GoldenL1
{
  public:
    GoldenL1(uint32_t sets, uint32_t assoc, uint32_t subs_per_block)
        : sets_(sets), assoc_(assoc), spb_(subs_per_block),
          lru_(sets)
    {
    }

    uint32_t
    setOf(uint64_t key) const
    {
        uint32_t tid = static_cast<uint32_t>(key >> 32);
        uint32_t l2 = static_cast<uint32_t>((key >> 8) & 0xffffff);
        uint32_t l1 = static_cast<uint32_t>(key & 0xff);
        return (l2 * spb_ + l1 + tid * 0x9e3779b1u) & (sets_ - 1);
    }

    bool
    lookup(uint64_t key)
    {
        auto &set = lru_[setOf(key)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == key) {
                set.erase(it);
                set.push_front(key); // move to MRU
                return true;
            }
        }
        return false;
    }

    void
    fill(uint64_t key)
    {
        auto &set = lru_[setOf(key)];
        if (set.size() >= assoc_)
            set.pop_back(); // evict LRU
        set.push_front(key);
    }

  private:
    uint32_t sets_, assoc_, spb_;
    std::vector<std::list<uint64_t>> lru_;
};

struct L1Case
{
    uint64_t size_bytes;
    uint32_t assoc;
    uint32_t l1_tile;
    uint64_t seed;
};

class L1GoldenTest : public ::testing::TestWithParam<L1Case>
{
};

TEST_P(L1GoldenTest, MatchesReference)
{
    const L1Case p = GetParam();
    L1Config cfg;
    cfg.size_bytes = p.size_bytes;
    cfg.assoc = p.assoc;
    cfg.l1_tile = p.l1_tile;
    L1Cache dut(cfg);

    uint32_t span = std::max(16u, p.l1_tile);
    uint32_t per_edge = span / p.l1_tile;
    GoldenL1 gold(dut.sets(), p.assoc ? p.assoc : static_cast<uint32_t>(
                                                      cfg.lines()),
                  per_edge * per_edge);

    Rng rng(p.seed);
    uint64_t hits = 0, misses = 0;
    for (int i = 0; i < 40000; ++i) {
        uint64_t key = packBlock(
            {1 + static_cast<TextureId>(rng.below(3)),
             static_cast<uint32_t>(rng.below(256)),
             static_cast<uint32_t>(rng.below(16))});
        bool expect = gold.lookup(key);
        bool got = dut.lookup(key);
        ASSERT_EQ(got, expect) << "iteration " << i;
        if (got) {
            ++hits;
        } else {
            ++misses;
            gold.fill(key);
            dut.fill(key);
            ASSERT_TRUE(dut.probe(key));
        }
    }
    EXPECT_EQ(dut.stats().accesses, hits + misses);
    EXPECT_EQ(dut.stats().misses, misses);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, L1GoldenTest,
    ::testing::Values(L1Case{2 * 1024, 1, 4, 1}, L1Case{2 * 1024, 2, 4, 2},
                      L1Case{4 * 1024, 4, 4, 3}, L1Case{16 * 1024, 2, 4, 4},
                      L1Case{8 * 1024, 2, 8, 5}, L1Case{2 * 1024, 0, 4, 6}),
    [](const ::testing::TestParamInfo<L1Case> &param_info) {
        return "s" + std::to_string(param_info.param.size_bytes / 1024) +
               "k_a" + std::to_string(param_info.param.assoc) + "_t" +
               std::to_string(param_info.param.l1_tile);
    });

} // namespace
} // namespace mltc
