#include "core/l2_cache.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "util/error.hpp"

namespace mltc {

namespace {

/** Bounds guard shared by access()/probe(). */
void
checkTableIndex(uint32_t t_index, size_t entries)
{
    if (t_index >= entries)
        throw Exception(ErrorCode::OutOfRange,
                        "L2TextureCache: page-table index " +
                            std::to_string(t_index) + " out of range (" +
                            std::to_string(entries) + " entries)");
}

} // namespace

const char *
prefetchPolicyName(PrefetchPolicy policy)
{
    switch (policy) {
      case PrefetchPolicy::None: return "none";
      case PrefetchPolicy::AdjacentSector: return "adjacent";
      case PrefetchPolicy::WholeBlock: return "whole-block";
    }
    return "?";
}

L2SharePolicy
parseL2SharePolicy(const char *name)
{
    if (std::strcmp(name, "shared") == 0)
        return L2SharePolicy::Shared;
    if (std::strcmp(name, "static") == 0)
        return L2SharePolicy::Static;
    if (std::strcmp(name, "utility") == 0)
        return L2SharePolicy::Utility;
    throw std::invalid_argument(std::string("unknown share policy: ") + name);
}

const char *
l2SharePolicyName(L2SharePolicy policy)
{
    switch (policy) {
      case L2SharePolicy::Shared: return "shared";
      case L2SharePolicy::Static: return "static";
      case L2SharePolicy::Utility: return "utility";
    }
    return "?";
}

L2TextureCache::L2TextureCache(TextureManager &textures,
                               const L2Config &config)
    : L2TextureCache(std::vector<TextureManager *>{&textures}, config,
                     L2SharePolicy::Shared)
{}

L2TextureCache::L2TextureCache(const std::vector<TextureManager *> &streams,
                               const L2Config &config, L2SharePolicy share)
    : streams_(streams), cfg_(config), share_(share)
{
    if (config.blocks() == 0)
        throw std::invalid_argument("L2TextureCache: zero blocks");
    if (config.sectors() > 64)
        throw std::invalid_argument(
            "L2TextureCache: more than 64 sectors per block");
    if (streams_.empty())
        throw std::invalid_argument("L2TextureCache: zero streams");
    if (streams_.size() > 254)
        throw std::invalid_argument("L2TextureCache: more than 254 streams");
    if (streams_.size() > config.blocks())
        throw std::invalid_argument(
            "L2TextureCache: more streams than blocks (every stream needs "
            "at least one block)");

    stream_count_ = static_cast<uint32_t>(streams_.size());

    // Host-driver page-table allocation: one contiguous region per
    // stream, inside it contiguous tlen entries per loaded texture, in
    // tid order.
    tstarts_.resize(stream_count_);
    region_start_.assign(stream_count_ + 1, 0);
    uint32_t next = 0;
    TileSpec spec{cfg_.l2_tile, cfg_.l1_tile};
    for (uint32_t s = 0; s < stream_count_; ++s) {
        region_start_[s] = next;
        TextureManager &textures = *streams_[s];
        tstarts_[s].assign(textures.textureCount() + 1, 0);
        for (TextureId tid = 1; tid <= textures.textureCount(); ++tid) {
            if (!textures.isLoaded(tid))
                continue;
            const TiledLayout &layout = textures.layout(tid, spec);
            tstarts_[s][tid] = next;
            next += layout.totalL2Blocks();
        }
    }
    region_start_[stream_count_] = next;
    table_.assign(next, {});
    brl_owner_.assign(config.blocks(), 0);
    selector_ = makeVictimSelector(config.policy,
                                   static_cast<uint32_t>(config.blocks()));
    sector_read_bytes_ = cfg_.l1_tile * cfg_.l1_tile * 4ull;

    // Equal block split: remainder blocks go to the low stream ids.
    // Under Shared the quotas are reporting-only fair shares; under
    // Static they are hard partition sizes; under Utility they are the
    // initial targets the online repartitioner adjusts.
    const uint64_t blocks = config.blocks();
    quota_.assign(stream_count_, blocks / stream_count_);
    for (uint32_t s = 0; s < blocks % stream_count_; ++s)
        ++quota_[s];
    base_.assign(stream_count_, 0);
    for (uint32_t s = 1; s < stream_count_; ++s)
        base_[s] = base_[s - 1] + quota_[s - 1];
    if (share_ == L2SharePolicy::Static)
        for (uint32_t s = 0; s < stream_count_; ++s)
            part_selector_.push_back(makeVictimSelector(
                config.policy, static_cast<uint32_t>(quota_[s])));

    block_stream_.assign(blocks, kFreeBlock);
    stream_alloc_.assign(stream_count_, 0);
    stream_stats_.resize(stream_count_);
}

uint32_t
L2TextureCache::tstart(TextureId tid) const
{
    return tstartFor(0, tid);
}

uint32_t
L2TextureCache::tstartFor(uint32_t stream, TextureId tid) const
{
    if (stream >= stream_count_)
        throw std::out_of_range("L2TextureCache: bad stream");
    if (tid == 0 || tid >= tstarts_[stream].size())
        throw std::out_of_range("L2TextureCache: bad tid");
    return tstarts_[stream][tid];
}

uint32_t
L2TextureCache::streamOfIndex(uint32_t t_index) const
{
    checkTableIndex(t_index, table_.size());
    for (uint32_t s = 0; s < stream_count_; ++s)
        if (t_index < region_start_[s + 1])
            return s;
    return stream_count_ - 1; // unreachable: the index bound is checked
}

L2Result
L2TextureCache::access(uint32_t t_index, uint32_t l1_sub,
                       uint64_t host_sector_bytes, uint32_t stream)
{
    checkTableIndex(t_index, table_.size());
    if (stream >= stream_count_)
        throw Exception(ErrorCode::OutOfRange,
                        "L2TextureCache: stream " + std::to_string(stream) +
                            " out of range (" +
                            std::to_string(stream_count_) + " streams)");
    if (stream_count_ > 1 &&
        (t_index < region_start_[stream] || t_index >= region_start_[stream + 1]))
        throw Exception(ErrorCode::OutOfRange,
                        "L2TextureCache: page-table index " +
                            std::to_string(t_index) +
                            " outside the region of stream " +
                            std::to_string(stream));

    const uint64_t host0 = stats_.host_bytes;
    const uint64_t read0 = stats_.l2_read_bytes;
    const L2Result res = accessImpl(t_index, l1_sub, host_sector_bytes, stream);

    L2StreamStats &ss = stream_stats_[stream];
    ++ss.lookups;
    switch (res) {
      case L2Result::FullHit: ++ss.full_hits; break;
      case L2Result::PartialHit: ++ss.partial_hits; break;
      case L2Result::FullMiss: ++ss.full_misses; break;
    }
    ss.host_bytes += stats_.host_bytes - host0;
    ss.l2_read_bytes += stats_.l2_read_bytes - read0;
    return res;
}

L2Result
L2TextureCache::accessImpl(uint32_t t_index, uint32_t l1_sub,
                           uint64_t host_sector_bytes, uint32_t stream)
{
    ++stats_.lookups;
    TableEntry &entry = table_[t_index];
    const uint64_t sector_bit = 1ull << l1_sub;

    if (entry.phys_plus1 != 0) {
        uint32_t phys = entry.phys_plus1 - 1;
        touchBlock(phys);
        if (entry.sectors & sector_bit) {
            // Step D yes: the sub-block is resident in L2.
            ++stats_.full_hits;
            stats_.l2_read_bytes += sector_read_bytes_;
            last_download_sectors_ = 0;
            if (entry.prefetched & sector_bit) {
                ++stats_.prefetch_useful;
                entry.prefetched &= ~sector_bit;
            }
            return L2Result::FullHit;
        }
        // Step F: download just the missing sector (sector mapping),
        // into L2 and, in parallel, into L1.
        ++stats_.partial_hits;
        entry.sectors |= sector_bit;
        stats_.host_bytes += host_sector_bytes;
        last_download_sectors_ = 1;
        prefetchAfterDemand(entry, l1_sub, host_sector_bytes);
        return L2Result::PartialHit;
    }

    // Step E: full miss — allocate a physical block, evicting if full.
    ++stats_.full_misses;
    uint32_t phys = allocBlockFor(stream);
    brl_owner_[phys] = t_index + 1;
    block_stream_[phys] = static_cast<uint8_t>(stream);
    ++stream_alloc_[stream];
    entry.phys_plus1 = phys + 1;
    entry.sectors = sector_bit;
    entry.prefetched = 0;
    touchBlock(phys);
    stats_.host_bytes += host_sector_bytes;
    last_download_sectors_ = 1;
    prefetchAfterDemand(entry, l1_sub, host_sector_bytes);
    return L2Result::FullMiss;
}

void
L2TextureCache::touchBlock(uint32_t phys)
{
    if (share_ == L2SharePolicy::Static) {
        uint8_t s = block_stream_[phys];
        if (s != kFreeBlock)
            part_selector_[s]->onAccess(
                phys - static_cast<uint32_t>(base_[s]));
        return;
    }
    selector_->onAccess(phys);
}

void
L2TextureCache::noteVictimSteps(uint32_t steps)
{
    last_victim_steps_ = steps;
    stats_.victim_steps += steps;
    if (steps > stats_.victim_steps_max)
        stats_.victim_steps_max = steps;
    victim_hist_.add(steps);
}

uint32_t
L2TextureCache::victimStream(uint32_t stream) const
{
    // An over-quota stream funds its own allocation; otherwise take a
    // block back from the most-over-quota stream (ties: lowest id).
    if (stream_alloc_[stream] >= quota_[stream])
        return stream;
    uint32_t best = stream;
    int64_t best_over = INT64_MIN;
    for (uint32_t s = 0; s < stream_count_; ++s) {
        if (stream_alloc_[s] == 0)
            continue;
        int64_t over = static_cast<int64_t>(stream_alloc_[s]) -
                       static_cast<int64_t>(quota_[s]);
        if (over > best_over) {
            best_over = over;
            best = s;
        }
    }
    return best;
}

uint32_t
L2TextureCache::allocBlockFor(uint32_t stream)
{
    if (share_ == L2SharePolicy::Static) {
        // A stream only ever allocates and evicts inside its own
        // contiguous partition, replaying exactly what a solo cache of
        // quota_[stream] blocks would do.
        if (stream_alloc_[stream] < quota_[stream]) {
            last_victim_steps_ = 0;
            ++allocated_;
            return static_cast<uint32_t>(base_[stream] +
                                         stream_alloc_[stream]);
        }
        VictimSelector &sel = *part_selector_[stream];
        uint32_t local = sel.selectVictim();
        noteVictimSteps(sel.lastSearchSteps());
        uint32_t phys = static_cast<uint32_t>(base_[stream]) + local;
        evictPhys(phys, stream);
        return phys;
    }

    // Shared/Utility: one global pool. Blocks released by a quarantined
    // stream are reused first (LIFO), then cold fill, then eviction.
    if (!free_list_.empty()) {
        uint32_t phys = free_list_.back();
        free_list_.pop_back();
        last_victim_steps_ = 0;
        return phys;
    }
    if (allocated_ < cfg_.blocks()) {
        last_victim_steps_ = 0;
        return static_cast<uint32_t>(allocated_++);
    }

    uint32_t phys;
    if (share_ == L2SharePolicy::Shared) {
        phys = selector_->selectVictim();
    } else {
        uint32_t vs = victimStream(stream);
        if (stream_alloc_[vs] == 0) {
            // Defensive: no owned block in the chosen stream (cannot
            // happen when the pool is full) — fall back to global LRU.
            phys = selector_->selectVictim();
        } else {
            phys = selector_->selectVictimOwnedBy(block_stream_.data(),
                                                  static_cast<uint8_t>(vs));
        }
    }
    noteVictimSteps(selector_->lastSearchSteps());
    evictPhys(phys, stream);
    return phys;
}

void
L2TextureCache::evictPhys(uint32_t phys, uint32_t requester)
{
    uint32_t old_owner = brl_owner_[phys];
    if (old_owner != 0) {
        // Notify the victim: clear the virtual block's ownership.
        table_[old_owner - 1].phys_plus1 = 0;
        table_[old_owner - 1].sectors = 0;
        table_[old_owner - 1].prefetched = 0;
        ++stats_.evictions;
    }
    uint8_t os = block_stream_[phys];
    if (os != kFreeBlock) {
        --stream_alloc_[os];
        ++stream_stats_[os].evictions_suffered;
        if (os != requester)
            ++stream_stats_[requester].cross_evictions;
        block_stream_[phys] = kFreeBlock;
    }
}

void
L2TextureCache::prefetchAfterDemand(TableEntry &entry, uint32_t l1_sub,
                                    uint64_t host_sector_bytes)
{
    switch (cfg_.prefetch) {
      case PrefetchPolicy::None:
        return;
      case PrefetchPolicy::AdjacentSector: {
        // Fetch the next sector along the scan direction within the
        // same block row (rasterization order is left-to-right).
        const uint32_t row = cfg_.l2_tile / cfg_.l1_tile;
        if ((l1_sub % row) + 1 < row) {
            uint64_t bit = 1ull << (l1_sub + 1);
            if (!(entry.sectors & bit)) {
                entry.sectors |= bit;
                entry.prefetched |= bit;
                stats_.host_bytes += host_sector_bytes;
                ++stats_.prefetch_sectors;
                ++last_download_sectors_;
            }
        }
        return;
      }
      case PrefetchPolicy::WholeBlock: {
        const uint32_t n = cfg_.sectors();
        for (uint32_t s = 0; s < n; ++s) {
            uint64_t bit = 1ull << s;
            if (!(entry.sectors & bit)) {
                entry.sectors |= bit;
                entry.prefetched |= bit;
                stats_.host_bytes += host_sector_bytes;
                ++stats_.prefetch_sectors;
                ++last_download_sectors_;
            }
        }
        return;
      }
    }
}

bool
L2TextureCache::probe(uint32_t t_index, uint32_t l1_sub) const
{
    checkTableIndex(t_index, table_.size());
    const TableEntry &entry = table_[t_index];
    return entry.phys_plus1 != 0 && (entry.sectors & (1ull << l1_sub));
}

const L2StreamStats &
L2TextureCache::streamStats(uint32_t stream) const
{
    if (stream >= stream_count_)
        throw std::out_of_range("L2TextureCache: bad stream");
    return stream_stats_[stream];
}

uint64_t
L2TextureCache::streamAllocated(uint32_t stream) const
{
    if (stream >= stream_count_)
        throw std::out_of_range("L2TextureCache: bad stream");
    return stream_alloc_[stream];
}

void
L2TextureCache::setQuotas(const std::vector<uint64_t> &quotas)
{
    if (share_ != L2SharePolicy::Utility)
        throw std::invalid_argument(
            "L2TextureCache: quotas are only adjustable under the utility "
            "share policy");
    if (quotas.size() != stream_count_)
        throw std::invalid_argument(
            "L2TextureCache: quota count does not match stream count");
    uint64_t sum = 0;
    for (uint64_t q : quotas) {
        if (q == 0)
            throw std::invalid_argument(
                "L2TextureCache: every stream needs a quota of >= 1 block");
        sum += q;
    }
    if (sum != cfg_.blocks())
        throw std::invalid_argument(
            "L2TextureCache: quotas must sum to the block count");
    quota_ = quotas;
}

void
L2TextureCache::releaseStream(uint32_t stream)
{
    if (stream >= stream_count_)
        throw std::out_of_range("L2TextureCache: bad stream");
    const uint64_t blocks = cfg_.blocks();
    for (uint32_t phys = 0; phys < blocks; ++phys) {
        if (block_stream_[phys] != stream)
            continue;
        uint32_t owner = brl_owner_[phys];
        if (owner != 0) {
            table_[owner - 1].phys_plus1 = 0;
            table_[owner - 1].sectors = 0;
            table_[owner - 1].prefetched = 0;
            brl_owner_[phys] = 0;
        }
        block_stream_[phys] = kFreeBlock;
        if (share_ == L2SharePolicy::Static)
            --allocated_; // partition refills from its base when reused
        else
            free_list_.push_back(phys);
    }
    stream_alloc_[stream] = 0;
    if (share_ == L2SharePolicy::Static)
        part_selector_[stream]->reset();
}

void
L2TextureCache::reset()
{
    std::fill(table_.begin(), table_.end(), TableEntry{});
    std::fill(brl_owner_.begin(), brl_owner_.end(), 0);
    selector_->reset();
    for (auto &sel : part_selector_)
        sel->reset();
    std::fill(block_stream_.begin(), block_stream_.end(), kFreeBlock);
    std::fill(stream_alloc_.begin(), stream_alloc_.end(), 0);
    free_list_.clear();
    allocated_ = 0;
}

namespace {
constexpr uint32_t kL2Tag = snapTag("L2C ");
} // namespace

void
L2TextureCache::save(SnapshotWriter &w) const
{
    w.section(kL2Tag);
    w.u64(cfg_.size_bytes);
    w.u32(cfg_.l2_tile);
    w.u32(cfg_.l1_tile);
    w.u8(static_cast<uint8_t>(cfg_.policy));
    w.u8(static_cast<uint8_t>(cfg_.prefetch));
    w.u32(static_cast<uint32_t>(table_.size()));

    // Page table as parallel columns (cheaper than per-entry framing).
    std::vector<uint64_t> sectors(table_.size()), prefetched(table_.size());
    std::vector<uint32_t> phys(table_.size());
    for (size_t i = 0; i < table_.size(); ++i) {
        sectors[i] = table_[i].sectors;
        prefetched[i] = table_[i].prefetched;
        phys[i] = table_[i].phys_plus1;
    }
    w.u64Vec(sectors);
    w.u64Vec(prefetched);
    w.u32Vec(phys);
    w.u32Vec(brl_owner_);
    selector_->save(w);
    w.u64(allocated_);
    w.u32(last_victim_steps_);
    w.u32(last_download_sectors_);
    w.u64(stats_.lookups);
    w.u64(stats_.full_hits);
    w.u64(stats_.partial_hits);
    w.u64(stats_.full_misses);
    w.u64(stats_.evictions);
    w.u64(stats_.host_bytes);
    w.u64(stats_.l2_read_bytes);
    w.u64(stats_.victim_steps);
    w.u32(stats_.victim_steps_max);
    w.u64(stats_.prefetch_sectors);
    w.u64(stats_.prefetch_useful);
    victim_hist_.save(w);

    // Multi-tenant state (snapshot v4). Region starts and partition
    // bases are re-derived by the constructor, so only dynamic state is
    // written.
    w.u8(static_cast<uint8_t>(share_));
    w.u32(stream_count_);
    w.u8Vec(block_stream_);
    w.u64Vec(stream_alloc_);
    w.u64Vec(quota_);
    w.u32Vec(free_list_);
    for (const L2StreamStats &ss : stream_stats_) {
        w.u64(ss.lookups);
        w.u64(ss.full_hits);
        w.u64(ss.partial_hits);
        w.u64(ss.full_misses);
        w.u64(ss.evictions_suffered);
        w.u64(ss.cross_evictions);
        w.u64(ss.host_bytes);
        w.u64(ss.l2_read_bytes);
    }
    if (share_ == L2SharePolicy::Static)
        for (const auto &sel : part_selector_)
            sel->save(w);
}

void
L2TextureCache::load(SnapshotReader &r)
{
    r.expectSection(kL2Tag, "L2TextureCache");
    const uint64_t size_bytes = r.u64();
    const uint32_t l2_tile = r.u32();
    const uint32_t l1_tile = r.u32();
    const uint8_t policy = r.u8();
    const uint8_t prefetch = r.u8();
    if (size_bytes != cfg_.size_bytes || l2_tile != cfg_.l2_tile ||
        l1_tile != cfg_.l1_tile ||
        policy != static_cast<uint8_t>(cfg_.policy) ||
        prefetch != static_cast<uint8_t>(cfg_.prefetch))
        throw Exception(ErrorCode::VersionMismatch,
                        "L2TextureCache: snapshot geometry/policy does not "
                        "match the configured cache");
    const uint32_t entries = r.u32();
    if (entries != table_.size())
        throw Exception(ErrorCode::VersionMismatch,
                        "L2TextureCache: snapshot page table has " +
                            std::to_string(entries) + " entries, expected " +
                            std::to_string(table_.size()) +
                            " (different texture set?)");

    std::vector<uint64_t> sectors, prefetched;
    std::vector<uint32_t> phys;
    r.u64Vec(sectors);
    r.u64Vec(prefetched);
    r.u32Vec(phys);
    if (sectors.size() != table_.size() || prefetched.size() != table_.size() ||
        phys.size() != table_.size())
        throw Exception(ErrorCode::Corrupt,
                        "L2TextureCache: snapshot page-table columns "
                        "disagree on entry count");
    std::vector<uint32_t> brl;
    r.u32Vec(brl);
    if (brl.size() != brl_owner_.size())
        throw Exception(ErrorCode::Corrupt,
                        "L2TextureCache: snapshot BRL size mismatch");

    for (size_t i = 0; i < table_.size(); ++i) {
        table_[i].sectors = sectors[i];
        table_[i].prefetched = prefetched[i];
        table_[i].phys_plus1 = phys[i];
    }
    brl_owner_ = std::move(brl);
    selector_->load(r);
    allocated_ = r.u64();
    if (allocated_ > cfg_.blocks())
        throw Exception(ErrorCode::Corrupt,
                        "L2TextureCache: snapshot allocated block count "
                        "exceeds capacity");
    last_victim_steps_ = r.u32();
    last_download_sectors_ = r.u32();
    stats_.lookups = r.u64();
    stats_.full_hits = r.u64();
    stats_.partial_hits = r.u64();
    stats_.full_misses = r.u64();
    stats_.evictions = r.u64();
    stats_.host_bytes = r.u64();
    stats_.l2_read_bytes = r.u64();
    stats_.victim_steps = r.u64();
    stats_.victim_steps_max = r.u32();
    stats_.prefetch_sectors = r.u64();
    stats_.prefetch_useful = r.u64();
    victim_hist_.load(r);

    const uint8_t share = r.u8();
    const uint32_t stream_count = r.u32();
    if (share != static_cast<uint8_t>(share_) ||
        stream_count != stream_count_)
        throw Exception(ErrorCode::VersionMismatch,
                        "L2TextureCache: snapshot share policy/stream count "
                        "does not match the configured cache");
    std::vector<uint8_t> block_stream;
    std::vector<uint64_t> stream_alloc, quota;
    std::vector<uint32_t> free_list;
    r.u8Vec(block_stream);
    r.u64Vec(stream_alloc);
    r.u64Vec(quota);
    r.u32Vec(free_list);
    if (block_stream.size() != block_stream_.size() ||
        stream_alloc.size() != stream_count_ ||
        quota.size() != stream_count_ || free_list.size() > cfg_.blocks())
        throw Exception(ErrorCode::Corrupt,
                        "L2TextureCache: snapshot multi-tenant columns have "
                        "inconsistent sizes");
    for (uint8_t owner : block_stream)
        if (owner != kFreeBlock && owner >= stream_count_)
            throw Exception(ErrorCode::Corrupt,
                            "L2TextureCache: snapshot block owner out of "
                            "range");
    for (uint32_t free_phys : free_list)
        if (free_phys >= cfg_.blocks())
            throw Exception(ErrorCode::Corrupt,
                            "L2TextureCache: snapshot free-list entry out of "
                            "range");
    if (share_ == L2SharePolicy::Static && quota != quota_)
        throw Exception(ErrorCode::Corrupt,
                        "L2TextureCache: snapshot static partition sizes "
                        "disagree with the configured split");
    block_stream_ = std::move(block_stream);
    stream_alloc_ = std::move(stream_alloc);
    quota_ = std::move(quota);
    free_list_ = std::move(free_list);
    for (L2StreamStats &ss : stream_stats_) {
        ss.lookups = r.u64();
        ss.full_hits = r.u64();
        ss.partial_hits = r.u64();
        ss.full_misses = r.u64();
        ss.evictions_suffered = r.u64();
        ss.cross_evictions = r.u64();
        ss.host_bytes = r.u64();
        ss.l2_read_bytes = r.u64();
    }
    if (share_ == L2SharePolicy::Static) {
        base_.assign(stream_count_, 0);
        for (uint32_t s = 1; s < stream_count_; ++s)
            base_[s] = base_[s - 1] + quota_[s - 1];
        for (auto &sel : part_selector_)
            sel->load(r);
    }
}

} // namespace mltc
