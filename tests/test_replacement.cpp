/**
 * @file
 * Unit tests for the victim selectors: clock, exact LRU, FIFO, random.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/replacement.hpp"
#include "util/rng.hpp"
#include "util/serializer.hpp"

namespace mltc {
namespace {

TEST(PolicyParsing, RoundTrips)
{
    for (auto p : {ReplacementPolicy::Clock, ReplacementPolicy::Lru,
                   ReplacementPolicy::Fifo, ReplacementPolicy::Random})
        EXPECT_EQ(parseReplacementPolicy(replacementPolicyName(p)), p);
    EXPECT_THROW(parseReplacementPolicy("bogus"), std::invalid_argument);
}

TEST(Factory, MakesEachKind)
{
    for (auto p : {ReplacementPolicy::Clock, ReplacementPolicy::Lru,
                   ReplacementPolicy::Fifo, ReplacementPolicy::Random}) {
        auto sel = makeVictimSelector(p, 8);
        ASSERT_NE(sel, nullptr);
        uint32_t v = sel->selectVictim();
        EXPECT_LT(v, 8u);
    }
}

// --- Clock -----------------------------------------------------------------

TEST(Clock, EvictsInactiveFirst)
{
    ClockSelector clock(4);
    clock.onAccess(0);
    clock.onAccess(1);
    // 2 and 3 inactive; hand at 0: clears 0,1 then takes 2.
    EXPECT_EQ(clock.selectVictim(), 2u);
    EXPECT_EQ(clock.lastSearchSteps(), 3u);
}

TEST(Clock, SecondChanceSemantics)
{
    ClockSelector clock(2);
    clock.onAccess(0);
    clock.onAccess(1);
    // All active: first sweep clears both, second sweep takes index 0.
    EXPECT_EQ(clock.selectVictim(), 0u);
    // 1's bit was cleared; it goes next.
    EXPECT_EQ(clock.selectVictim(), 1u);
}

TEST(Clock, HandAdvances)
{
    ClockSelector clock(4);
    // No activity: victims come out in circular order.
    EXPECT_EQ(clock.selectVictim(), 0u);
    EXPECT_EQ(clock.selectVictim(), 1u);
    EXPECT_EQ(clock.selectVictim(), 2u);
    EXPECT_EQ(clock.selectVictim(), 3u);
    EXPECT_EQ(clock.selectVictim(), 0u);
}

TEST(Clock, ResetRestoresInitialState)
{
    ClockSelector clock(4);
    clock.onAccess(0);
    clock.selectVictim();
    clock.reset();
    EXPECT_EQ(clock.selectVictim(), 0u);
    EXPECT_EQ(clock.lastSearchSteps(), 1u);
}

TEST(Clock, ApproximatesLruUnderSkew)
{
    // Keep block 5 hot; it should never be chosen over 16 evictions.
    ClockSelector clock(8);
    for (int i = 0; i < 16; ++i) {
        clock.onAccess(5);
        EXPECT_NE(clock.selectVictim(), 5u);
    }
}

// --- LRU ---------------------------------------------------------------------

TEST(Lru, EvictsLeastRecentlyUsed)
{
    LruSelector lru(4);
    lru.onAccess(3);
    lru.onAccess(2);
    lru.onAccess(1);
    lru.onAccess(0);
    // Recency now 0 (MRU) .. 3 (LRU).
    EXPECT_EQ(lru.selectVictim(), 3u);
    lru.onAccess(3); // victim reused -> becomes MRU
    EXPECT_EQ(lru.selectVictim(), 2u);
}

TEST(Lru, TouchMovesToFront)
{
    LruSelector lru(3);
    lru.onAccess(0);
    lru.onAccess(1);
    lru.onAccess(2); // order: 2,1,0
    lru.onAccess(0); // order: 0,2,1
    EXPECT_EQ(lru.selectVictim(), 1u);
}

TEST(Lru, RepeatedTouchOfHeadIsNoop)
{
    LruSelector lru(3);
    lru.onAccess(2);
    lru.onAccess(2);
    lru.onAccess(2);
    EXPECT_EQ(lru.selectVictim(), 1u); // initial order 0,1 behind 2...
}

TEST(Lru, ExhaustiveRotation)
{
    LruSelector lru(4);
    // Touch everything in order; LRU should be the first touched.
    for (uint32_t i = 0; i < 4; ++i)
        lru.onAccess(i);
    EXPECT_EQ(lru.selectVictim(), 0u);
}

TEST(Lru, ResetRestoresOrder)
{
    LruSelector lru(4);
    lru.onAccess(3);
    lru.reset();
    EXPECT_EQ(lru.selectVictim(), 3u); // initial LRU is highest index
}

// --- FIFO ---------------------------------------------------------------------

TEST(Fifo, IgnoresTouches)
{
    FifoSelector fifo(3);
    fifo.onAccess(0);
    fifo.onAccess(0);
    EXPECT_EQ(fifo.selectVictim(), 0u);
    EXPECT_EQ(fifo.selectVictim(), 1u);
    EXPECT_EQ(fifo.selectVictim(), 2u);
    EXPECT_EQ(fifo.selectVictim(), 0u);
}

// --- Random ---------------------------------------------------------------------

TEST(Random, StaysInRangeAndCoversSpace)
{
    RandomSelector rnd(16);
    std::set<uint32_t> seen;
    for (int i = 0; i < 500; ++i) {
        uint32_t v = rnd.selectVictim();
        ASSERT_LT(v, 16u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 16u); // all blocks eventually chosen
}

TEST(Random, ResetReproduces)
{
    RandomSelector rnd(16);
    uint32_t first = rnd.selectVictim();
    rnd.selectVictim();
    rnd.reset();
    EXPECT_EQ(rnd.selectVictim(), first);
}

// --- Owner-constrained victim search (differential) -----------------------

/**
 * Reference model of every selector's partition-constrained search: the
 * original predicate scans, verbatim in spirit, over a plain copy of
 * the selector state. save() writes the selectors' own snapshot layout
 * so the real selector's bytes can be compared after every call.
 */
struct SelectorModel
{
    ReplacementPolicy policy;
    uint32_t n;
    std::vector<uint8_t> active; ///< clock active bits
    uint32_t hand = 0;           ///< clock / FIFO hand
    uint32_t steps = 0;          ///< clock: steps of the last search
    std::vector<uint32_t> order; ///< LRU: MRU first
    Rng rng;                     ///< random

    void
    touch(uint32_t i)
    {
        if (policy == ReplacementPolicy::Clock) {
            active[i] = 1;
        } else if (policy == ReplacementPolicy::Lru) {
            order.erase(std::find(order.begin(), order.end(), i));
            order.insert(order.begin(), i);
        }
    }

    uint32_t
    among(const std::function<bool(uint32_t)> &allowed)
    {
        switch (policy) {
          case ReplacementPolicy::Clock:
            steps = 0;
            for (uint32_t step = 0; step < 2 * n; ++step) {
                ++steps;
                const uint32_t i = hand;
                hand = (hand + 1) % n;
                if (!allowed(i))
                    continue;
                if (!active[i])
                    return i;
                active[i] = 0;
            }
            for (uint32_t i = 0; i < n; ++i)
                if (allowed(i))
                    return i;
            return hand;
          case ReplacementPolicy::Lru:
            for (auto it = order.rbegin(); it != order.rend(); ++it)
                if (allowed(*it))
                    return *it;
            return order.back();
          case ReplacementPolicy::Fifo:
            for (uint32_t k = 0; k < n; ++k) {
                const uint32_t i = (hand + k) % n;
                if (allowed(i)) {
                    hand = (i + 1) % n;
                    return i;
                }
            }
            return hand;
          case ReplacementPolicy::Random: {
            const uint32_t start = static_cast<uint32_t>(rng.below(n));
            for (uint32_t k = 0; k < n; ++k) {
                const uint32_t i = (start + k) % n;
                if (allowed(i))
                    return i;
            }
            return start;
          }
        }
        return 0;
    }

    uint32_t
    searchSteps() const
    {
        return policy == ReplacementPolicy::Clock ? steps : 1;
    }

    void
    save(SnapshotWriter &w) const
    {
        w.section(snapTag("SEL "));
        w.u8(static_cast<uint8_t>(policy));
        switch (policy) {
          case ReplacementPolicy::Clock:
            w.u8Vec(active);
            w.u32(hand);
            w.u32(steps);
            break;
          case ReplacementPolicy::Lru: {
            std::vector<uint32_t> prev(n), next(n);
            for (uint32_t k = 0; k < n; ++k) {
                prev[order[k]] = k == 0 ? n : order[k - 1];
                next[order[k]] = k + 1 == n ? n : order[k + 1];
            }
            w.u32Vec(prev);
            w.u32Vec(next);
            w.u32(order.front());
            w.u32(order.back());
            break;
          }
          case ReplacementPolicy::Fifo:
            w.u32(hand);
            break;
          case ReplacementPolicy::Random: {
            uint64_t state[4];
            rng.saveState(state);
            for (uint64_t word : state)
                w.u64(word);
            break;
          }
        }
    }
};

/** A model with random state: active bits, hand, recency order, RNG. */
SelectorModel
randomModel(ReplacementPolicy policy, uint32_t n, Rng &rng)
{
    SelectorModel m{policy, n, {}, 0, 0, {}, Rng(rng.next())};
    m.active.resize(n);
    const double density = rng.uniform();
    for (auto &a : m.active)
        a = rng.chance(density) ? 1 : 0;
    m.hand = static_cast<uint32_t>(rng.below(n));
    m.steps = static_cast<uint32_t>(rng.below(2 * n + 1));
    m.order.resize(n);
    for (uint32_t i = 0; i < n; ++i)
        m.order[i] = i;
    for (uint32_t i = n; i > 1; --i)
        std::swap(m.order[i - 1], m.order[rng.below(i)]);
    return m;
}

std::vector<uint8_t>
payloadOf(const SelectorModel &m)
{
    SnapshotWriter w("unused");
    m.save(w);
    return w.payload();
}

std::vector<uint8_t>
payloadOf(const VictimSelector &sel)
{
    SnapshotWriter w("unused");
    sel.save(w);
    return w.payload();
}

/** Load the model's state into a fresh selector of the same policy. */
std::unique_ptr<VictimSelector>
selectorFrom(const SelectorModel &m)
{
    const std::string path =
        testing::TempDir() + "victim_search_" +
        replacementPolicyName(m.policy) + ".snap";
    SnapshotWriter w(path);
    m.save(w);
    w.finish();
    auto sel = makeVictimSelector(m.policy, m.n);
    SnapshotReader r(path);
    sel->load(r);
    r.expectEnd();
    std::remove(path.c_str());
    return sel;
}

constexpr uint8_t kFree = 0xFF;
constexpr uint8_t kStreams = 3;

/** The victim search under test: blocks owned by @p stream only. */
uint32_t
selectOwned(VictimSelector &sel, const std::vector<uint8_t> &owner,
            uint8_t stream)
{
    return sel.selectVictimOwnedBy(owner.data(), stream);
}

/**
 * Owner map for one trial. Shapes: random owners (free blocks
 * included), @p stream owning no block, exactly one block, or every
 * block.
 */
std::vector<uint8_t>
ownerMap(uint32_t n, uint8_t stream, int shape, Rng &rng)
{
    std::vector<uint8_t> owner(n);
    for (auto &o : owner) {
        const uint64_t r = rng.below(kStreams + 1);
        o = r == kStreams ? kFree : static_cast<uint8_t>(r);
    }
    if (shape == 1 || shape == 2) {
        for (auto &o : owner)
            if (o == stream)
                o = static_cast<uint8_t>((stream + 1) % kStreams);
        if (shape == 2)
            owner[rng.below(n)] = stream;
    } else if (shape == 3) {
        std::fill(owner.begin(), owner.end(), stream);
    }
    return owner;
}

class VictimSearch : public testing::TestWithParam<ReplacementPolicy>
{};

TEST_P(VictimSearch, MatchesPredicateScanOracle)
{
    const ReplacementPolicy policy = GetParam();
    Rng rng(0xC10C + static_cast<uint64_t>(policy));
    for (uint32_t n : {1u, 2u, 3u, 7u, 8u, 9u, 63u, 64u, 65u, 130u, 1000u,
                       4096u}) {
        for (int trial = 0; trial < 24; ++trial) {
            const uint8_t stream = static_cast<uint8_t>(rng.below(kStreams));
            const int shape = trial % 4;
            std::vector<uint8_t> owner = ownerMap(n, stream, shape, rng);
            SelectorModel model = randomModel(policy, n, rng);
            std::unique_ptr<VictimSelector> sel = selectorFrom(model);
            ASSERT_EQ(payloadOf(*sel), payloadOf(model));
            for (int call = 0; call < 8; ++call) {
                const std::string ctx =
                    std::string(replacementPolicyName(policy)) +
                    " n=" + std::to_string(n) + " trial=" +
                    std::to_string(trial) + " shape=" +
                    std::to_string(shape) + " call=" +
                    std::to_string(call);
                // Touch a few blocks between searches, and (outside
                // the fixed shapes) let ownership drift.
                for (uint64_t t = rng.below(4); t > 0; --t) {
                    const uint32_t i = static_cast<uint32_t>(rng.below(n));
                    sel->onAccess(i);
                    model.touch(i);
                }
                if (shape == 0 && rng.chance(0.5))
                    owner[rng.below(n)] =
                        static_cast<uint8_t>(rng.below(kStreams));
                const uint8_t want =
                    shape == 0 ? static_cast<uint8_t>(rng.below(kStreams))
                               : stream;
                const uint32_t expect = model.among(
                    [&](uint32_t i) { return owner[i] == want; });
                ASSERT_EQ(selectOwned(*sel, owner, want), expect) << ctx;
                ASSERT_EQ(sel->lastSearchSteps(), model.searchSteps())
                    << ctx;
                ASSERT_EQ(payloadOf(*sel), payloadOf(model)) << ctx;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, VictimSearch,
    testing::Values(ReplacementPolicy::Clock, ReplacementPolicy::Lru,
                    ReplacementPolicy::Fifo, ReplacementPolicy::Random),
    [](const testing::TestParamInfo<ReplacementPolicy> &p) {
        return std::string(replacementPolicyName(p.param));
    });

} // namespace
} // namespace mltc
