/**
 * @file
 * Tests for the state invariant auditor: clean simulators pass the
 * exhaustive sweep at any point of a run, and every deliberately
 * corrupted structure yields a typed AuditViolation naming the
 * structure (and index) — via AuditTestPeer, a test-only friend with
 * mutating access to the private state.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/audit.hpp"
#include "core/cache_sim.hpp"
#include "util/error.hpp"
#include "workload/village.hpp"

namespace mltc {

/** Test-only peer: reaches into private state to break invariants. */
class AuditTestPeer
{
  public:
    static L1Cache &l1(CacheSim &sim) { return sim.l1_; }
    static L2TextureCache &l2(CacheSim &sim) { return *sim.l2_; }
    static TextureTlb &tlb(CacheSim &sim) { return *sim.tlb_; }
    static CacheFrameStats &frame(CacheSim &sim) { return sim.frame_; }

    static std::vector<uint64_t> &l1Tags(CacheSim &sim)
    {
        return sim.l1_.tags_;
    }
    static std::vector<uint64_t> &l1Stamps(CacheSim &sim)
    {
        return sim.l1_.stamps_;
    }
    static uint32_t l1Assoc(CacheSim &sim) { return sim.l1_.assoc_; }
    static uint32_t l1Sets(CacheSim &sim) { return sim.l1_.sets_; }
    static uint32_t l1SetOf(CacheSim &sim, uint64_t tag)
    {
        return sim.l1_.setIndex(tag);
    }

    /** First allocated t_table index, or -1 when the L2 is empty. */
    static long firstMapped(CacheSim &sim)
    {
        const auto &table = sim.l2_->table_;
        for (size_t t = 0; t < table.size(); ++t)
            if (table[t].phys_plus1 != 0)
                return static_cast<long>(t);
        return -1;
    }
    static void setSectors(CacheSim &sim, long t, uint64_t sectors,
                           uint64_t prefetched)
    {
        sim.l2_->table_[static_cast<size_t>(t)].sectors = sectors;
        sim.l2_->table_[static_cast<size_t>(t)].prefetched = prefetched;
    }
    static void disownPhysicalBlock(CacheSim &sim, long t)
    {
        auto &l2 = *sim.l2_;
        const uint32_t phys =
            l2.table_[static_cast<size_t>(t)].phys_plus1 - 1;
        l2.brl_owner_[phys] =
            static_cast<uint32_t>(t) + 2; // off-by-one owner
    }
    static void setAllocated(CacheSim &sim, uint64_t n)
    {
        sim.l2_->allocated_ = n;
    }
    static uint64_t l2Blocks(CacheSim &sim)
    {
        return sim.l2_->cfg_.blocks();
    }
    static uint32_t l2Sectors(CacheSim &sim)
    {
        return sim.l2_->cfg_.sectors();
    }

    static void setTlbHand(CacheSim &sim, uint32_t hand)
    {
        sim.tlb_->hand_ = hand;
    }
    static void setTlbSlot(CacheSim &sim, size_t i, uint32_t value)
    {
        sim.tlb_->slots_[i] = value;
    }

    static void breakLruList(CacheSim &sim)
    {
        auto &lru = static_cast<LruSelector &>(*sim.l2_->selector_);
        lru.next_[lru.head_] = lru.head_; // self-loop: list revisits
    }
    static void pushClockHandOut(CacheSim &sim)
    {
        auto &clock = static_cast<ClockSelector &>(*sim.l2_->selector_);
        clock.hand_ = static_cast<uint32_t>(clock.active_.size());
    }
};

namespace {

Workload
smallWorld()
{
    VillageParams p;
    p.houses = 3;
    p.trees = 1;
    p.ground_texture_size = 64;
    p.wall_texture_size = 64;
    return buildVillage(p);
}

/** Drive @p sim over a couple of textures so every structure has state. */
void
exercise(Workload &wl, CacheSim &sim, int frames = 2)
{
    for (int f = 0; f < frames; ++f) {
        for (TextureId tid = 1;
             tid <= std::min<size_t>(2, wl.textures->textureCount());
             ++tid) {
            sim.bindTexture(tid);
            const uint32_t mip = static_cast<uint32_t>(f) % 2;
            const uint32_t edge =
                wl.textures->texture(tid).pyramid.width() >> mip;
            for (uint32_t y = 0; y + 1 < edge; y += 3)
                for (uint32_t x = 0; x + 1 < edge; x += 3)
                    sim.accessQuad(x, y, x + 1, y + 1, mip);
        }
        sim.endFrame();
    }
}

void
expectViolation(CacheSim &sim, AuditLevel level, const char *structure)
{
    try {
        sim.audit(level);
        FAIL() << "expected AuditViolation naming " << structure;
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::AuditViolation);
        EXPECT_NE(std::string(e.what()).find(structure), std::string::npos)
            << "got: " << e.what();
    }
}

CacheSimConfig
twoLevelTlb()
{
    CacheSimConfig cfg = CacheSimConfig::twoLevel(32 << 10, 1 << 20);
    cfg.tlb_entries = 4;
    return cfg;
}

TEST(Audit, CleanSimsPassFullSweep)
{
    Workload wl = smallWorld();
    std::vector<std::pair<std::string, CacheSimConfig>> cases;
    cases.emplace_back("pull", CacheSimConfig::pull(32 << 10));
    cases.emplace_back("two-level+tlb", twoLevelTlb());
    {
        CacheSimConfig lru = twoLevelTlb();
        lru.l2.policy = ReplacementPolicy::Lru;
        cases.emplace_back("lru", lru);
    }
    {
        CacheSimConfig pf = twoLevelTlb();
        pf.l2.prefetch = PrefetchPolicy::AdjacentSector;
        cases.emplace_back("prefetch", pf);
    }
    for (auto &[name, cfg] : cases) {
        CacheSim sim(*wl.textures, cfg, name);
        EXPECT_NO_THROW(sim.audit(AuditLevel::Full)) << name << " (empty)";
        exercise(wl, sim);
        EXPECT_NO_THROW(sim.audit(AuditLevel::Full)) << name;
        EXPECT_NO_THROW(sim.audit(AuditLevel::Cheap)) << name;
        EXPECT_NO_THROW(sim.audit(AuditLevel::Off)) << name;
    }
}

TEST(Audit, StatsInversionTripsCheapCheck)
{
    Workload wl = smallWorld();
    CacheSim sim(*wl.textures, twoLevelTlb(), "t");
    exercise(wl, sim);
    AuditTestPeer::frame(sim).l1_misses =
        AuditTestPeer::frame(sim).accesses + 1;
    expectViolation(sim, AuditLevel::Cheap, "CacheSim.frame");
}

TEST(Audit, L1GeometrySkewTripsCheapCheck)
{
    Workload wl = smallWorld();
    CacheSim sim(*wl.textures, twoLevelTlb(), "t");
    exercise(wl, sim);
    AuditTestPeer::l1Tags(sim).push_back(0);
    expectViolation(sim, AuditLevel::Cheap, "L1Cache");
}

TEST(Audit, L1BogusTextureIdTripsFullSweep)
{
    Workload wl = smallWorld();
    CacheSim sim(*wl.textures, twoLevelTlb(), "t");
    exercise(wl, sim);
    const uint64_t bogus =
        (static_cast<uint64_t>(wl.textures->textureCount()) + 5) << 32;
    AuditTestPeer::l1Tags(sim)[0] = bogus;
    AuditTestPeer::l1Stamps(sim)[0] = 1;
    expectViolation(sim, AuditLevel::Full, "L1Cache.tags");
}

TEST(Audit, L1TagInWrongSetTripsFullSweep)
{
    Workload wl = smallWorld();
    CacheSim sim(*wl.textures, twoLevelTlb(), "t");
    exercise(wl, sim);
    auto &tags = AuditTestPeer::l1Tags(sim);
    // Move a valid resident tag into a set it does not hash to. Storage
    // is way-major, so index `set` addresses way plane 0 of that set.
    const uint32_t sets = AuditTestPeer::l1Sets(sim);
    ASSERT_GT(sets, 1u);
    long src = -1;
    for (size_t i = 0; i < tags.size(); ++i)
        if (tags[i] != 0) {
            src = static_cast<long>(i);
            break;
        }
    ASSERT_GE(src, 0) << "exercise() left the L1 empty?";
    const uint64_t tag = tags[static_cast<size_t>(src)];
    const uint32_t home = AuditTestPeer::l1SetOf(sim, tag);
    const uint32_t wrong = (home + 1) % sets;
    tags[wrong] = tag;
    AuditTestPeer::l1Stamps(sim)[wrong] = 1;
    expectViolation(sim, AuditLevel::Full, "L1Cache.tags");
}

TEST(Audit, L2IllegalSectorBitsTripFullSweep)
{
    Workload wl = smallWorld();
    CacheSim sim(*wl.textures, twoLevelTlb(), "t");
    exercise(wl, sim);
    const long t = AuditTestPeer::firstMapped(sim);
    ASSERT_GE(t, 0);
    const uint32_t sectors = AuditTestPeer::l2Sectors(sim);
    ASSERT_LT(sectors, 64u);
    AuditTestPeer::setSectors(sim, t, 1ull << sectors, 0);
    expectViolation(sim, AuditLevel::Full, "t_table");
}

TEST(Audit, L2PrefetchedNotSubsetTripsFullSweep)
{
    Workload wl = smallWorld();
    CacheSim sim(*wl.textures, twoLevelTlb(), "t");
    exercise(wl, sim);
    const long t = AuditTestPeer::firstMapped(sim);
    ASSERT_GE(t, 0);
    AuditTestPeer::setSectors(sim, t, 1, 2); // prefetched bit not resident
    expectViolation(sim, AuditLevel::Full, "t_table");
}

TEST(Audit, L2BrokenBrlOwnershipTripsFullSweep)
{
    Workload wl = smallWorld();
    CacheSim sim(*wl.textures, twoLevelTlb(), "t");
    exercise(wl, sim);
    const long t = AuditTestPeer::firstMapped(sim);
    ASSERT_GE(t, 0);
    AuditTestPeer::disownPhysicalBlock(sim, t);
    expectViolation(sim, AuditLevel::Full, "t_table");
}

TEST(Audit, L2AllocationWatermarkChecked)
{
    Workload wl = smallWorld();
    CacheSim sim(*wl.textures, twoLevelTlb(), "t");
    exercise(wl, sim);
    // Over capacity: cheap check.
    AuditTestPeer::setAllocated(sim, AuditTestPeer::l2Blocks(sim) + 1);
    expectViolation(sim, AuditLevel::Cheap, "L2TextureCache");
    // Watermark above the owned region: full sweep.
    AuditTestPeer::setAllocated(sim, AuditTestPeer::l2Blocks(sim));
    expectViolation(sim, AuditLevel::Full, "BRL");
}

TEST(Audit, TlbHandOutOfRangeTripsCheapCheck)
{
    Workload wl = smallWorld();
    CacheSim sim(*wl.textures, twoLevelTlb(), "t");
    exercise(wl, sim);
    AuditTestPeer::setTlbHand(sim, 99);
    expectViolation(sim, AuditLevel::Cheap, "TextureTlb");
}

TEST(Audit, TlbDanglingTranslationTripsFullSweep)
{
    Workload wl = smallWorld();
    CacheSim sim(*wl.textures, twoLevelTlb(), "t");
    exercise(wl, sim);
    AuditTestPeer::setTlbSlot(sim, 0, 0xfffffff0u);
    expectViolation(sim, AuditLevel::Full, "TextureTlb.slots");
}

TEST(Audit, LruListCorruptionTripsFullSweep)
{
    Workload wl = smallWorld();
    CacheSimConfig cfg = twoLevelTlb();
    cfg.l2.policy = ReplacementPolicy::Lru;
    CacheSim sim(*wl.textures, cfg, "t");
    exercise(wl, sim);
    AuditTestPeer::breakLruList(sim);
    expectViolation(sim, AuditLevel::Full, "LruSelector");
}

TEST(Audit, ClockHandOutOfRangeTripsFullSweep)
{
    Workload wl = smallWorld();
    CacheSim sim(*wl.textures, twoLevelTlb(), "t");
    exercise(wl, sim);
    AuditTestPeer::pushClockHandOut(sim);
    expectViolation(sim, AuditLevel::Full, "ClockSelector");
}

TEST(Audit, ParseAuditLevel)
{
    EXPECT_EQ(parseAuditLevel("off"), AuditLevel::Off);
    EXPECT_EQ(parseAuditLevel("cheap"), AuditLevel::Cheap);
    EXPECT_EQ(parseAuditLevel("full"), AuditLevel::Full);
    try {
        parseAuditLevel("loud");
        FAIL() << "bad level accepted";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::BadArgument);
    }
    EXPECT_STREQ(auditLevelName(AuditLevel::Full), "full");
}

} // namespace
} // namespace mltc
