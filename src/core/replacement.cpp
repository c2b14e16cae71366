#include "core/replacement.hpp"

#include <cstring>
#include <stdexcept>

#include "util/error.hpp"

namespace mltc {

namespace {

constexpr uint32_t kSelTag = snapTag("SEL ");

/// Shared section framing: every selector writes its policy byte so a
/// snapshot taken under a different policy fails typed, not garbled.
void
writeSelectorHeader(SnapshotWriter &w, ReplacementPolicy policy)
{
    w.section(kSelTag);
    w.u8(static_cast<uint8_t>(policy));
}

void
readSelectorHeader(SnapshotReader &r, ReplacementPolicy policy)
{
    r.expectSection(kSelTag, "VictimSelector");
    const uint8_t got = r.u8();
    if (got != static_cast<uint8_t>(policy))
        throw Exception(ErrorCode::VersionMismatch,
                        std::string("VictimSelector: snapshot uses policy #") +
                            std::to_string(got) + ", configured policy is " +
                            replacementPolicyName(policy));
}

/**
 * Ring distance from @p from to the first block at or after it
 * (wrapping) that @p stream owns, or @p n when it owns none. memchr
 * skips each run of other streams' blocks in one call.
 */
uint32_t
distanceToOwned(const uint8_t *owner, uint32_t n, uint32_t from,
                uint8_t stream)
{
    if (const void *p = std::memchr(owner + from, stream, n - from))
        return static_cast<uint32_t>(static_cast<const uint8_t *>(p) -
                                     (owner + from));
    if (const void *p = std::memchr(owner, stream, from))
        return n - from +
               static_cast<uint32_t>(static_cast<const uint8_t *>(p) - owner);
    return n;
}

} // namespace

ReplacementPolicy
parseReplacementPolicy(const char *name)
{
    if (std::strcmp(name, "clock") == 0)
        return ReplacementPolicy::Clock;
    if (std::strcmp(name, "lru") == 0)
        return ReplacementPolicy::Lru;
    if (std::strcmp(name, "fifo") == 0)
        return ReplacementPolicy::Fifo;
    if (std::strcmp(name, "random") == 0)
        return ReplacementPolicy::Random;
    throw std::invalid_argument(std::string("unknown policy: ") + name);
}

const char *
replacementPolicyName(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::Clock: return "clock";
      case ReplacementPolicy::Lru: return "lru";
      case ReplacementPolicy::Fifo: return "fifo";
      case ReplacementPolicy::Random: return "random";
    }
    return "?";
}

ClockSelector::ClockSelector(uint32_t blocks) : active_(blocks, 0) {}

uint32_t
ClockSelector::selectVictim()
{
    // March around the BRL clearing active bits until an inactive entry
    // is found. Guaranteed to terminate within two sweeps.
    last_steps_ = 0;
    const uint32_t n = static_cast<uint32_t>(active_.size());
    for (uint32_t step = 0; step < 2 * n; ++step) {
        ++last_steps_;
        uint32_t i = hand_;
        hand_ = (hand_ + 1) % n;
        if (!active_[i])
            return i;
        active_[i] = 0;
    }
    return hand_; // unreachable: all bits were cleared in the first sweep
}

uint32_t
ClockSelector::selectVictimOwnedBy(const uint8_t *owner, uint8_t stream)
{
    // Same sweep as selectVictim(), but other streams' blocks are
    // skipped *without* clearing their active bits: a partition-
    // constrained eviction must not age other partitions' recency
    // state. Each skipped block still costs one step, as in the BRL
    // walk; only the simulator jumps the run in one memchr. After one
    // full revolution every owned block's bit is clear, so the second
    // revolution returns the first owned block encountered.
    const uint32_t n = static_cast<uint32_t>(active_.size());
    const uint32_t limit = 2 * n;
    uint32_t steps = 0;
    for (;;) {
        const uint32_t d = distanceToOwned(owner, n, hand_, stream);
        if (d == n || d >= limit - steps)
            break;
        const uint32_t i = hand_ + d < n ? hand_ + d : hand_ + d - n;
        steps += d + 1;
        hand_ = i + 1 == n ? 0 : i + 1;
        if (!active_[i]) {
            last_steps_ = steps;
            return i;
        }
        active_[i] = 0;
    }
    // Unreachable when the caller guarantees an owned block exists:
    // the sweep spends its 2n steps, then a plain scan keeps the
    // invariant failure local.
    hand_ = (hand_ + (limit - steps)) % n;
    last_steps_ = limit;
    const uint32_t d = distanceToOwned(owner, n, 0, stream);
    return d == n ? hand_ : d;
}

void
ClockSelector::reset()
{
    std::fill(active_.begin(), active_.end(), 0);
    hand_ = 0;
    last_steps_ = 0;
}

LruSelector::LruSelector(uint32_t blocks) : blocks_(blocks)
{
    reset();
}

void
LruSelector::reset()
{
    // Initial recency order: 0 (MRU) .. blocks-1 (LRU); victims start
    // from the tail, matching an empty cache being filled in order.
    prev_.assign(blocks_, 0);
    next_.assign(blocks_, 0);
    for (uint32_t i = 0; i < blocks_; ++i) {
        prev_[i] = i == 0 ? blocks_ : i - 1;
        next_[i] = i + 1 == blocks_ ? blocks_ : i + 1;
    }
    head_ = 0;
    tail_ = blocks_ - 1;
}

void
LruSelector::unlink(uint32_t index)
{
    uint32_t p = prev_[index];
    uint32_t n = next_[index];
    if (p == blocks_)
        head_ = n;
    else
        next_[p] = n;
    if (n == blocks_)
        tail_ = p;
    else
        prev_[n] = p;
}

void
LruSelector::pushFront(uint32_t index)
{
    prev_[index] = blocks_;
    next_[index] = head_;
    if (head_ != blocks_)
        prev_[head_] = index;
    head_ = index;
    if (tail_ == blocks_)
        tail_ = index;
}

void
LruSelector::onAccess(uint32_t index)
{
    if (head_ == index)
        return;
    unlink(index);
    pushFront(index);
}

uint32_t
LruSelector::selectVictim()
{
    return tail_;
}

uint32_t
LruSelector::selectVictimOwnedBy(const uint8_t *owner, uint8_t stream)
{
    // Walk from coldest toward hottest until an owned block appears.
    for (uint32_t i = tail_; i != blocks_; i = prev_[i])
        if (owner[i] == stream)
            return i;
    return tail_;
}

uint32_t
FifoSelector::selectVictimOwnedBy(const uint8_t *owner, uint8_t stream)
{
    // Advance the hand past other streams' blocks without disturbing
    // their queue position relative to each other.
    const uint32_t d = distanceToOwned(owner, blocks_, hand_, stream);
    if (d == blocks_)
        return hand_;
    const uint32_t i = (hand_ + d) % blocks_;
    hand_ = (i + 1) % blocks_;
    return i;
}

uint32_t
RandomSelector::selectVictimOwnedBy(const uint8_t *owner, uint8_t stream)
{
    // One RNG draw (keeps the stream aligned with selectVictim), then
    // the nearest owned block scanning forward with wraparound.
    const uint32_t start = static_cast<uint32_t>(rng_.below(blocks_));
    const uint32_t d = distanceToOwned(owner, blocks_, start, stream);
    return d == blocks_ ? start : (start + d) % blocks_;
}

void
ClockSelector::save(SnapshotWriter &w) const
{
    writeSelectorHeader(w, ReplacementPolicy::Clock);
    w.u8Vec(active_);
    w.u32(hand_);
    w.u32(last_steps_);
}

void
ClockSelector::load(SnapshotReader &r)
{
    readSelectorHeader(r, ReplacementPolicy::Clock);
    std::vector<uint8_t> active;
    r.u8Vec(active);
    if (active.size() != active_.size())
        throw Exception(ErrorCode::Corrupt,
                        "ClockSelector: snapshot block count mismatch");
    active_ = std::move(active);
    hand_ = r.u32();
    last_steps_ = r.u32();
    if (hand_ >= active_.size())
        throw Exception(ErrorCode::Corrupt,
                        "ClockSelector: snapshot hand out of range");
}

void
LruSelector::save(SnapshotWriter &w) const
{
    writeSelectorHeader(w, ReplacementPolicy::Lru);
    w.u32Vec(prev_);
    w.u32Vec(next_);
    w.u32(head_);
    w.u32(tail_);
}

void
LruSelector::load(SnapshotReader &r)
{
    readSelectorHeader(r, ReplacementPolicy::Lru);
    std::vector<uint32_t> prev, next;
    r.u32Vec(prev);
    r.u32Vec(next);
    if (prev.size() != blocks_ || next.size() != blocks_)
        throw Exception(ErrorCode::Corrupt,
                        "LruSelector: snapshot block count mismatch");
    prev_ = std::move(prev);
    next_ = std::move(next);
    head_ = r.u32();
    tail_ = r.u32();
    if (head_ > blocks_ || tail_ > blocks_)
        throw Exception(ErrorCode::Corrupt,
                        "LruSelector: snapshot list heads out of range");
}

void
FifoSelector::save(SnapshotWriter &w) const
{
    writeSelectorHeader(w, ReplacementPolicy::Fifo);
    w.u32(hand_);
}

void
FifoSelector::load(SnapshotReader &r)
{
    readSelectorHeader(r, ReplacementPolicy::Fifo);
    hand_ = r.u32();
    if (hand_ >= blocks_)
        throw Exception(ErrorCode::Corrupt,
                        "FifoSelector: snapshot hand out of range");
}

void
RandomSelector::save(SnapshotWriter &w) const
{
    writeSelectorHeader(w, ReplacementPolicy::Random);
    uint64_t state[4];
    rng_.saveState(state);
    for (uint64_t word : state)
        w.u64(word);
}

void
RandomSelector::load(SnapshotReader &r)
{
    readSelectorHeader(r, ReplacementPolicy::Random);
    uint64_t state[4];
    for (auto &word : state)
        word = r.u64();
    rng_.loadState(state);
}

std::unique_ptr<VictimSelector>
makeVictimSelector(ReplacementPolicy policy, uint32_t blocks)
{
    switch (policy) {
      case ReplacementPolicy::Clock:
        return std::make_unique<ClockSelector>(blocks);
      case ReplacementPolicy::Lru:
        return std::make_unique<LruSelector>(blocks);
      case ReplacementPolicy::Fifo:
        return std::make_unique<FifoSelector>(blocks);
      case ReplacementPolicy::Random:
        return std::make_unique<RandomSelector>(blocks);
    }
    throw std::invalid_argument("bad policy");
}

} // namespace mltc
