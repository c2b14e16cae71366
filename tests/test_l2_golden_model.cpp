/**
 * @file
 * Differential test: the production L2TextureCache against a simple,
 * obviously-correct golden model (std::map page table + list-based
 * clock), under long randomized access streams across several
 * configurations. Classic architecture-simulator validation.
 */
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "core/l2_cache.hpp"
#include "util/rng.hpp"

namespace mltc {
namespace {

/** Golden reference: unoptimised but transparently correct. */
class GoldenL2
{
  public:
    GoldenL2(uint32_t blocks, uint32_t sectors, uint64_t read_bytes)
        : capacity_(blocks), sectors_(sectors), read_bytes_(read_bytes),
          active_(blocks, false), owner_(blocks, ~0u)
    {
    }

    L2Result
    access(uint32_t t_index, uint32_t sector, uint64_t bytes)
    {
        auto it = table_.find(t_index);
        if (it != table_.end()) {
            uint32_t phys = it->second.phys;
            active_[phys] = true;
            if (it->second.present.count(sector)) {
                l2_read_bytes += read_bytes_;
                return L2Result::FullHit;
            }
            it->second.present.insert(sector);
            host_bytes += bytes;
            return L2Result::PartialHit;
        }

        uint32_t phys;
        if (allocated_ < capacity_) {
            phys = allocated_++;
        } else {
            // Clock over the physical blocks.
            for (;;) {
                if (!active_[hand_]) {
                    phys = hand_;
                    hand_ = (hand_ + 1) % capacity_;
                    break;
                }
                active_[hand_] = false;
                hand_ = (hand_ + 1) % capacity_;
            }
            if (owner_[phys] != ~0u) {
                table_.erase(owner_[phys]);
                ++evictions;
            }
        }
        owner_[phys] = t_index;
        Entry e;
        e.phys = phys;
        e.present.insert(sector);
        table_[t_index] = std::move(e);
        active_[phys] = true;
        host_bytes += bytes;
        return L2Result::FullMiss;
    }

    bool
    probe(uint32_t t_index, uint32_t sector) const
    {
        auto it = table_.find(t_index);
        return it != table_.end() && it->second.present.count(sector);
    }

    uint64_t host_bytes = 0;
    uint64_t l2_read_bytes = 0;
    uint64_t evictions = 0;

  private:
    struct Entry
    {
        uint32_t phys = 0;
        std::set<uint32_t> present;
    };

    uint32_t capacity_;
    uint32_t sectors_;
    uint64_t read_bytes_;
    std::map<uint32_t, Entry> table_;
    std::vector<bool> active_;
    std::vector<uint32_t> owner_;
    uint32_t allocated_ = 0;
    uint32_t hand_ = 0;
};

struct GoldenCase
{
    uint32_t blocks;
    uint32_t l2_tile;
    uint32_t l1_tile;
    uint32_t table_span; ///< distinct t_index values in the stream
    uint64_t seed;
};

class GoldenModelTest : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenModelTest, MatchesProductionL2)
{
    const GoldenCase p = GetParam();
    TextureManager tm;
    // One texture big enough that its page table covers table_span.
    tm.load("t", MipPyramid(Image(1024, 1024)));

    L2Config cfg;
    cfg.l2_tile = p.l2_tile;
    cfg.l1_tile = p.l1_tile;
    cfg.size_bytes = p.blocks * cfg.blockBytes();
    L2TextureCache dut(tm, cfg);
    ASSERT_GE(dut.tableEntries(), p.table_span);

    GoldenL2 gold(p.blocks, cfg.sectors(),
                  static_cast<uint64_t>(p.l1_tile) * p.l1_tile * 4);

    Rng rng(p.seed);
    for (int i = 0; i < 30000; ++i) {
        // Zipf-ish reuse: mostly revisit a hot region, sometimes jump.
        uint32_t t_index =
            rng.chance(0.8)
                ? static_cast<uint32_t>(rng.below(p.table_span / 4 + 1))
                : static_cast<uint32_t>(rng.below(p.table_span));
        uint32_t sector = static_cast<uint32_t>(rng.below(cfg.sectors()));

        L2Result expect = gold.access(t_index, sector, 64);
        L2Result got = dut.access(t_index, sector, 64);
        ASSERT_EQ(got, expect) << "iteration " << i;
        ASSERT_EQ(dut.probe(t_index, sector), true);
    }

    const L2Stats &s = dut.stats();
    EXPECT_EQ(s.host_bytes, gold.host_bytes);
    EXPECT_EQ(s.l2_read_bytes, gold.l2_read_bytes);
    EXPECT_EQ(s.evictions, gold.evictions);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GoldenModelTest,
    ::testing::Values(GoldenCase{4, 16, 4, 64, 1},
                      GoldenCase{16, 16, 4, 200, 2},
                      GoldenCase{64, 16, 4, 500, 3},
                      GoldenCase{16, 32, 4, 120, 4},
                      GoldenCase{16, 16, 8, 120, 5},
                      GoldenCase{8, 8, 4, 300, 6}),
    [](const ::testing::TestParamInfo<GoldenCase> &param_info) {
        return "b" + std::to_string(param_info.param.blocks) + "_t" +
               std::to_string(param_info.param.l2_tile) + "_s" +
               std::to_string(param_info.param.l1_tile) + "_n" +
               std::to_string(param_info.param.table_span);
    });

} // namespace
} // namespace mltc
