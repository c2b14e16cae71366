/**
 * @file
 * Block replacement policies for the L2 texture cache.
 *
 * The paper uses LRU approximated by the "clock" algorithm over the
 * Block Replacement List (§5.1-5.2) and calls out alternative
 * algorithms as future work (§6). We implement clock plus exact LRU,
 * FIFO and random for the ablation bench.
 */
#ifndef MLTC_CORE_REPLACEMENT_HPP
#define MLTC_CORE_REPLACEMENT_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.hpp"
#include "util/serializer.hpp"

namespace mltc {

/** Which victim-selection algorithm the L2 cache uses. */
enum class ReplacementPolicy { Clock, Lru, Fifo, Random };

/** Parse a policy name ("clock", "lru", "fifo", "random"). */
ReplacementPolicy parseReplacementPolicy(const char *name);

/** Name of a policy for reports. */
const char *replacementPolicyName(ReplacementPolicy policy);

/**
 * Victim selector over a fixed pool of physical blocks. Blocks are
 * identified by index in [0, blocks). The caller reports touches
 * (onAccess) and asks for victims (selectVictim); selection must only
 * return blocks that have been allocated (every block is allocated
 * before the pool is full, so victims are only requested when full).
 */
class VictimSelector
{
  public:
    virtual ~VictimSelector() = default;

    /** Physical block @p index was referenced. */
    virtual void onAccess(uint32_t index) = 0;

    /** Choose a victim; also counts the search cost in steps. */
    virtual uint32_t selectVictim() = 0;

    /**
     * Choose a victim among the blocks @p stream owns, i.e. the indices
     * i with owner[i] == stream (multi-tenant partition enforcement;
     * @p owner has one byte per block). The caller guarantees at least
     * one such block exists. Recency state of other blocks is left
     * untouched so other partitions see no side effects.
     */
    virtual uint32_t selectVictimOwnedBy(const uint8_t *owner,
                                         uint8_t stream) = 0;

    /** Steps expended by the last selectVictim() (clock "peskiness"). */
    virtual uint32_t lastSearchSteps() const { return 1; }

    /** Reset all state. */
    virtual void reset() = 0;

    /** Serialize the selector's state for a checkpoint. */
    virtual void save(SnapshotWriter &w) const = 0;

    /** Restore state captured by save() of the same policy and size. */
    virtual void load(SnapshotReader &r) = 0;
};

/**
 * The paper's clock approximation of LRU: a circular sweep over the
 * active bits of the BRL, clearing bits until an inactive entry is
 * found (§5.2 and Appendix).
 */
class ClockSelector final : public VictimSelector
{
  public:
    explicit ClockSelector(uint32_t blocks);

    void onAccess(uint32_t index) override { active_[index] = 1; }
    uint32_t selectVictim() override;
    uint32_t selectVictimOwnedBy(const uint8_t *owner,
                                 uint8_t stream) override;
    uint32_t lastSearchSteps() const override { return last_steps_; }
    void reset() override;
    void save(SnapshotWriter &w) const override;
    void load(SnapshotReader &r) override;

  private:
    friend class CacheAuditor;
    friend class AuditTestPeer;

    std::vector<uint8_t> active_;
    uint32_t hand_ = 0;
    uint32_t last_steps_ = 0;
};

/** Exact LRU via an intrusive doubly-linked recency list (O(1)). */
class LruSelector final : public VictimSelector
{
  public:
    explicit LruSelector(uint32_t blocks);

    void onAccess(uint32_t index) override;
    uint32_t selectVictim() override;
    uint32_t selectVictimOwnedBy(const uint8_t *owner,
                                 uint8_t stream) override;
    void reset() override;
    void save(SnapshotWriter &w) const override;
    void load(SnapshotReader &r) override;

  private:
    friend class CacheAuditor;
    friend class AuditTestPeer;

    void unlink(uint32_t index);
    void pushFront(uint32_t index);

    std::vector<uint32_t> prev_, next_;
    uint32_t head_; ///< most recently used
    uint32_t tail_; ///< least recently used
    uint32_t blocks_;
};

/** FIFO: evict in allocation order, ignoring touches. */
class FifoSelector final : public VictimSelector
{
  public:
    explicit FifoSelector(uint32_t blocks) : blocks_(blocks) {}

    void onAccess(uint32_t) override {}

    uint32_t
    selectVictim() override
    {
        uint32_t v = hand_;
        hand_ = (hand_ + 1) % blocks_;
        return v;
    }

    uint32_t selectVictimOwnedBy(const uint8_t *owner,
                                 uint8_t stream) override;

    void reset() override { hand_ = 0; }
    void save(SnapshotWriter &w) const override;
    void load(SnapshotReader &r) override;

  private:
    uint32_t blocks_;
    uint32_t hand_ = 0;
};

/** Uniform random eviction. */
class RandomSelector final : public VictimSelector
{
  public:
    explicit RandomSelector(uint32_t blocks, uint64_t seed = 0x5eedull)
        : blocks_(blocks), rng_(seed)
    {}

    void onAccess(uint32_t) override {}

    uint32_t
    selectVictim() override
    {
        return static_cast<uint32_t>(rng_.below(blocks_));
    }

    uint32_t selectVictimOwnedBy(const uint8_t *owner,
                                 uint8_t stream) override;

    void reset() override { rng_.reseed(0x5eedull); }
    void save(SnapshotWriter &w) const override;
    void load(SnapshotReader &r) override;

  private:
    uint32_t blocks_;
    Rng rng_;
};

/** Factory. */
std::unique_ptr<VictimSelector> makeVictimSelector(ReplacementPolicy policy,
                                                   uint32_t blocks);

} // namespace mltc

#endif // MLTC_CORE_REPLACEMENT_HPP
