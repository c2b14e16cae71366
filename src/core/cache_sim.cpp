#include "core/cache_sim.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/reuse_profiler.hpp"
#include "obs/stage.hpp"
#include "util/error.hpp"

namespace mltc {

void
CacheFrameStats::add(const CacheFrameStats &o)
{
    accesses += o.accesses;
    l1_misses += o.l1_misses;
    l2_full_hits += o.l2_full_hits;
    l2_partial_hits += o.l2_partial_hits;
    l2_full_misses += o.l2_full_misses;
    host_bytes += o.host_bytes;
    l2_read_bytes += o.l2_read_bytes;
    tlb_probes += o.tlb_probes;
    tlb_hits += o.tlb_hits;
    victim_steps_max = std::max(victim_steps_max, o.victim_steps_max);
    host_retries += o.host_retries;
    host_failures += o.host_failures;
    degraded_accesses += o.degraded_accesses;
    degraded_mip_bias += o.degraded_mip_bias;
    l1_compulsory += o.l1_compulsory;
    l1_capacity += o.l1_capacity;
    l1_conflict += o.l1_conflict;
    l2_compulsory += o.l2_compulsory;
    l2_capacity += o.l2_capacity;
    l2_conflict += o.l2_conflict;
}

CacheSim::CacheSim(TextureManager &textures, const CacheSimConfig &config,
                   std::string label)
    : textures_(textures), cfg_(config), label_(std::move(label)),
      l1_(config.l1)
{
    if (cfg_.l2_enabled) {
        // The sector granularity always matches the L1 tile.
        cfg_.l2.l1_tile = cfg_.l1.l1_tile;
        l2_ = std::make_unique<L2TextureCache>(textures, cfg_.l2);
        l2p_ = l2_.get();
    }
    if (cfg_.tlb_entries > 0)
        tlb_ = std::make_unique<TextureTlb>(cfg_.tlb_entries);
    if (cfg_.host.fault_injection) {
        auto backend = std::make_unique<FaultyHostBackend>(cfg_.host.faults);
        faulty_ = backend.get();
        host_ = std::make_unique<HostFetchPath>(std::move(backend),
                                                cfg_.host.retry);
    }
    if (cfg_.classify_misses) {
        // Shadow capacities are the real caches' capacities in their
        // allocation units: L1 lines, L2 blocks.
        l1_class_ = std::make_unique<MissClassifier>(cfg_.l1.lines());
        if (cfg_.l2_enabled)
            l2_class_ = std::make_unique<MissClassifier>(cfg_.l2.blocks());
    }
    l1_shift_ = log2u(cfg_.l1.l1_tile);
}

void
CacheSim::attachSharedL2(L2TextureCache *l2, uint32_t stream)
{
    if (l2_)
        throw std::logic_error(
            "CacheSim: attachSharedL2 on a simulator that owns an L2");
    if (bound_ != 0)
        throw std::logic_error(
            "CacheSim: attachSharedL2 after a texture was bound");
    if (l2 != nullptr && (host_ || profiler_))
        throw std::logic_error(
            "CacheSim: attachSharedL2 needs L2 results inline for host "
            "fault injection and reuse profiling; neither is supported "
            "on a shared L2");
    l2p_ = l2;
    l2_stream_ = l2 ? stream : 0;
    if (l2 != nullptr) {
        // Adopt the shared geometry so layout derivation and byte
        // accounting match the cache actually being driven.
        cfg_.l2 = l2->config();
        if (cfg_.classify_misses && !l2_class_)
            l2_class_ = std::make_unique<MissClassifier>(cfg_.l2.blocks());
    }
}

void
CacheSim::setReuseProfiler(ReuseProfiler *profiler)
{
    if (profiler != nullptr && l2p_ != nullptr && !l2_)
        throw std::logic_error(
            "CacheSim: a reuse profiler needs L2 results inline; it "
            "cannot attach to a simulator on a shared L2");
    profiler_ = profiler;
}

void
CacheSim::bindTexture(TextureId tid)
{
    bound_ = tid;
    // L1 tags use the fixed 16x16 L2 granulation (§3.3) so L1 behaviour
    // is identical across all simulated L2 tile sizes, with Morton
    // numbering (the "6D blocked representation") for conflict-free set
    // indexing of 2D tile regions.
    TileSpec l1_spec{std::max(16u, cfg_.l1.l1_tile), cfg_.l1.l1_tile,
                     /*morton=*/true};
    l1_layout_ = &textures_.layout(tid, l1_spec);
    {
        // Fused-translation constants for the batched fast loop (see
        // the member comment in cache_sim.hpp).
        const uint32_t per_edge = l1_spec.l2_tile / l1_spec.l1_tile;
        l1_level_base_ = l1_layout_->levelBases();
        l1_tid_hi_ = static_cast<uint64_t>(tid) << 32;
        l1_sub_bits_ = 2 * log2u(per_edge);
        l1_sub_mask_ = (1u << l1_sub_bits_) - 1;
    }
    if (l2p_) {
        TileSpec l2_spec{cfg_.l2.l2_tile, cfg_.l2.l1_tile};
        l2_layout_ = &textures_.layout(tid, l2_spec);
        tstart_ = l2p_->tstartFor(l2_stream_, tid);
    }
    const TextureEntry &tex = textures_.texture(tid);
    host_sector_bytes_ = static_cast<uint64_t>(cfg_.l1.l1_tile) *
                         cfg_.l1.l1_tile * tex.host_bits_per_texel / 8;
    if (profiler_) [[unlikely]]
        profiler_->bindTexture(tid, tex.pyramid.level(0).width(),
                               tex.pyramid.level(0).height());
    // The coalescing filter caches raw tile coordinates, which do not
    // encode the texture id — invalidate it across binds.
    last_tile_ = 0;
}

void
CacheSim::accessBatch(std::span<const TexelRef> refs)
{
    if (refs.empty())
        return;
    // One hook crossing per batch: the stage covers the whole span (the
    // flight recorder and metrics planes read the per-frame counters
    // this path increments, so they too see one update per batch).
    Stage stage(HotStage::CacheSimAccess);
    batchImpl(refs);
}

void
CacheSim::batchImpl(std::span<const TexelRef> refs)
{
    // Three phases per chunk:
    //   1. staging: expand quads to their distinct tile corners (a
    //      bilinear footprint spans at most 2x2 L1 tiles), drop the
    //      coalescing-filter non-survivors, and compact the survivors
    //      into SoA arrays. The filter is one entry: a corner whose
    //      (tx, ty, mip) equals its predecessor's is a guaranteed hit,
    //      since nothing can have evicted the line in between (after
    //      any serviced texel last_tile_ is exactly its tile, so
    //      "equals predecessor" is the filter's predicate). This is
    //      what real hardware's quad coalescing does; the only
    //      approximation is that repeats do not refresh the line's LRU
    //      stamp. The access count folds into one frame-counter update
    //      per chunk. Under a reuse profiler each pixel marker is kept
    //      as a survivor-index boundary;
    //   2. run the fused <tid, L2blk, L1blk> translation over the
    //      survivors (one Morton interleave each, see l1_level_base_
    //      in cache_sim.hpp);
    //   3. probe the L1 tag planes over the survivor run with
    //      lookupRun() — bookkeeping-identical to per-texel lookups —
    //      hand the run's hits and then its miss to the observers (reuse
    //      profiler, L1 3C classifier) when any is attached, and drop
    //      the miss out to handleMiss() before resuming the run behind
    //      it.
    constexpr size_t kChunk = 256;
    uint32_t sxs[kChunk], sys[kChunk];
    uint32_t stx[kChunk], sty[kChunk], sms[kChunk];
    uint64_t skeys[kChunk];
    // The chunk's pixel markers, kept only under a profiler: marker k
    // moves the screen position to (mpx[k], mpy[k]) before survivor
    // mat[k]. beginPixel() only sets the position, so of the markers
    // between two survivors only the last is kept, and a chunk never
    // holds more than kChunk.
    uint32_t mat[kChunk], mpx[kChunk], mpy[kChunk];
    ReuseProfiler *const prof = profiler_;
    const bool observed = prof || l1_class_;

    const uint32_t sh = l1_shift_;
    // Unpack the filter tile into comparable components; when empty
    // (after a bind) the sentinels are unmatchable, forcing the first
    // corner through exactly as tileKeyOf() != 0 always does.
    uint32_t ptx = 0xffffffffu, pty = 0xffffffffu, pm = 0xffffffffu;
    if (last_tile_ != 0) {
        ptx = static_cast<uint32_t>(last_tile_ & 0x1fffffffu);
        pty = static_cast<uint32_t>((last_tile_ >> 29) & 0x0fffffffu);
        pm = static_cast<uint32_t>(last_tile_ >> 58);
    }
    uint64_t prev = last_tile_;
    const uint32_t *lb = l1_level_base_;
    const uint64_t hi = l1_tid_hi_;
    const uint32_t sb = l1_sub_bits_, smask = l1_sub_mask_;
    size_t i = 0;
    while (i < refs.size()) {
        size_t ns = 0, nm = 0;
        uint64_t acc = 0;
        // Filter one corner; appends a survivor.
        const auto corner = [&](uint32_t x, uint32_t y,
                                uint32_t mip) __attribute__((always_inline)) {
            const uint32_t tx = x >> sh, ty = y >> sh;
            if (((tx ^ ptx) | (ty ^ pty) | (mip ^ pm)) == 0)
                return;
            ptx = tx;
            pty = ty;
            pm = mip;
            sxs[ns] = x;
            sys[ns] = y;
            stx[ns] = tx;
            sty[ns] = ty;
            sms[ns] = mip;
            ++ns;
        };
        // Stage while the chunk has room for a quad's four corners.
        while (i < refs.size() && ns + 4 <= kChunk) {
            const TexelRef &r = refs[i++];
            if (r.kind == TexelRef::kTexel) {
                ++acc;
                corner(r.x0, r.y0, r.mip);
            } else if (r.kind == TexelRef::kQuad) {
                acc += 4;
                const bool dx = (r.x0 >> sh) != (r.x1 >> sh);
                const bool dy = (r.y0 >> sh) != (r.y1 >> sh);
                corner(r.x0, r.y0, r.mip);
                if (dx)
                    corner(r.x1, r.y0, r.mip);
                if (dy) {
                    corner(r.x0, r.y1, r.mip);
                    if (dx)
                        corner(r.x1, r.y1, r.mip);
                }
            } else if (prof) [[unlikely]] {
                // A pixel marker: it carries no texel work, and only
                // the profiler reads the screen position.
                if (nm != 0 && mat[nm - 1] == ns)
                    --nm;
                mat[nm] = static_cast<uint32_t>(ns);
                mpx[nm] = r.x0;
                mpy[nm] = r.y0;
                ++nm;
            }
        }
        frame_.accesses += acc;

        size_t m = 0; // markers replayed
        // Observe survivors [from, p]: the hits before p, then the miss
        // at p (absent when p == ns), each after the markers staged
        // before it — where the per-texel flow observes them.
        const auto observe = [&](size_t from, size_t p) {
            for (size_t s = from; s < std::min(p + 1, ns); ++s) {
                for (; m < nm && mat[m] <= s; ++m)
                    prof->beginPixel(mpx[m], mpy[m]);
                observeL1(skeys[s], s < p, sxs[s], sys[s], sms[s]);
            }
        };
        if (ns != 0) {
            for (size_t s = 0; s < ns; ++s) {
                const uint32_t code = mortonInterleave(stx[s], sty[s]);
                skeys[s] = hi |
                           (static_cast<uint64_t>(lb[sms[s]] +
                                                  (code >> sb))
                            << 8) |
                           (code & smask);
            }

            size_t p = 0;
            while (p < ns) {
                const size_t from = p;
                p += l1_.lookupRun(skeys + p,
                                   static_cast<uint32_t>(ns - p));
                if (observed) [[unlikely]]
                    observe(from, p);
                if (p == ns)
                    break;
                ++frame_.l1_misses;
                // Exception contract: should handleMiss throw, leave the
                // filter on the previous serviced texel's tile.
                last_tile_ =
                    p ? tileKeyOf(sxs[p - 1], sys[p - 1], sms[p - 1]) : prev;
                handleMiss(sxs[p], sys[p], sms[p], skeys[p],
                           tileKeyOf(sxs[p], sys[p], sms[p]));
                ++p;
            }
            prev = tileKeyOf(sxs[ns - 1], sys[ns - 1], sms[ns - 1]);
        }
        // Markers behind the chunk's last survivor leave the screen
        // position on the last of them for the next chunk, the next
        // batch and snapshots.
        if (m < nm) [[unlikely]]
            prof->beginPixel(mpx[nm - 1], mpy[nm - 1]);
    }
    last_tile_ = prev;
}

void
CacheSim::observeL1(uint64_t key, bool l1_hit, uint32_t x, uint32_t y,
                    uint32_t mip)
{
    if (profiler_)
        profiler_->onL1Access(key, l1_hit, x, y, mip);
    if (l1_class_) {
        // The classifier sees the same post-coalescing stream the real
        // L1 sees; a miss is attributed the L1 fill traffic it causes.
        const auto c = l1_class_->access(key, key, l1_hit, bound_, mip,
                                         l2p_ ? cfg_.l1.lineBytes()
                                              : host_sector_bytes_);
        if (c) {
            switch (*c) {
              case MissClass::Compulsory: ++frame_.l1_compulsory; break;
              case MissClass::Capacity: ++frame_.l1_capacity; break;
              case MissClass::Conflict: ++frame_.l1_conflict; break;
            }
        }
    }
}

// Out of line: the growth path of the queue would otherwise bloat
// handleMiss(), which the owned-L2 path runs too.
__attribute__((noinline)) void
CacheSim::queueSharedMiss(uint32_t t_index, uint32_t l1_sub, uint32_t mip)
{
    if (l2_queued_ == l2_chunks_.size() * kMissChunk)
        l2_chunks_.push_back(
            std::make_unique_for_overwrite<SharedMiss[]>(kMissChunk));
    l2_chunks_[l2_queued_ / kMissChunk][l2_queued_ % kMissChunk] = {
        t_index, bound_, static_cast<uint32_t>(host_sector_bytes_),
        static_cast<uint16_t>(l1_sub), static_cast<uint16_t>(mip)};
    ++l2_queued_;
}

// Inlined into the owned path's handleMiss(), where it used to live.
__attribute__((always_inline)) inline L2Result
CacheSim::serviceL2(uint32_t t_index, uint32_t l1_sub, uint64_t sector_bytes,
                    TextureId tid, uint32_t mip)
{
    const L2Result res =
        l2p_->access(t_index, l1_sub, sector_bytes, l2_stream_);
    switch (res) {
      case L2Result::FullHit:
        ++frame_.l2_full_hits;
        frame_.l2_read_bytes += cfg_.l1.lineBytes();
        break;
      case L2Result::PartialHit:
        ++frame_.l2_partial_hits;
        frame_.host_bytes += sector_bytes * l2p_->lastDownloadSectors();
        break;
      case L2Result::FullMiss:
        ++frame_.l2_full_misses;
        frame_.host_bytes += sector_bytes * l2p_->lastDownloadSectors();
        frame_.victim_steps_max = std::max(frame_.victim_steps_max,
                                           l2p_->lastVictimSteps());
        break;
    }
    if (l2_class_) {
        // Sector-granular classification over a block-granular shadow:
        // the unit of "seen" is the (block, sector) pair, while the
        // fully-associative LRU shadows whole blocks (the allocation
        // unit), so conflict = a clock-vs-LRU replacement loss.
        const uint64_t sector_key =
            (static_cast<uint64_t>(t_index) << 16) | l1_sub;
        const bool full_hit = res == L2Result::FullHit;
        const auto c = l2_class_->access(
            sector_key, t_index, full_hit, tid, mip,
            full_hit ? 0 : sector_bytes * l2p_->lastDownloadSectors());
        if (c) {
            switch (*c) {
              case MissClass::Compulsory: ++frame_.l2_compulsory; break;
              case MissClass::Capacity: ++frame_.l2_capacity; break;
              case MissClass::Conflict: ++frame_.l2_conflict; break;
            }
        }
    }
    return res;
}

void
CacheSim::handleMiss(uint32_t x, uint32_t y, uint32_t mip, uint64_t key,
                     uint64_t tile)
{
    if (!l2p_) {
        // Pull architecture: download one L1 tile from host memory.
        if (host_ && !fetchFromHost(0)) {
            degradeToResidentMip(x, y, mip);
            last_tile_ = tile;
            return;
        }
        frame_.host_bytes += host_sector_bytes_;
        l1_.fill(key);
        last_tile_ = tile;
        return;
    }

    // Steps C-F: consult the texture page table (through the TLB when
    // modelled), then service from L2 or download the missing sector.
    const VirtualBlock vb = l2_layout_->blockOf(bound_, x, y, mip);
    const uint32_t t_index = tstart_ + vb.l2_block;
    if (l2_tracker_) [[unlikely]]
        l2_tracker_->record(t_index);
    if (tlb_) {
        ++frame_.tlb_probes;
        if (tlb_->probe(t_index))
            ++frame_.tlb_hits;
    }

    if (!l2_) {
        // Shared L2: queue the lookup for drainSharedL2(). The L1 fill
        // does not depend on its outcome.
        queueSharedMiss(t_index, vb.l1_sub, mip);
        l1_.fill(key);
        last_tile_ = tile;
        return;
    }

    // Under fault injection, any access that needs a download (partial
    // hit or full miss) must survive the fallible host channel before
    // the L2 may mutate: on retry exhaustion no block is allocated, no
    // sector bit is set, and the access degrades to a coarser resident
    // level instead.
    if (host_ && !l2p_->probe(t_index, vb.l1_sub) && !fetchFromHost(t_index)) {
        degradeToResidentMip(x, y, mip);
        last_tile_ = tile;
        return;
    }

    const L2Result res =
        serviceL2(t_index, vb.l1_sub, host_sector_bytes_, bound_, mip);
    if (profiler_) [[unlikely]]
        profiler_->onL2Sector(
            (static_cast<uint64_t>(t_index) << 16) | vb.l1_sub,
            res == L2Result::FullHit, x, y, mip);

    // Step F downloads into L1 in parallel with L2.
    l1_.fill(key);
    last_tile_ = tile;
}

void
CacheSim::drainSharedL2()
{
    const size_t n = std::exchange(l2_queued_, 0);
    for (size_t i = 0; i < n; ++i) {
        const SharedMiss &m = l2_chunks_[i / kMissChunk][i % kMissChunk];
        serviceL2(m.t_index, m.l1_sub, m.sector_bytes, m.tid, m.mip);
    }
}

bool
CacheSim::fetchFromHost(uint32_t t_index)
{
    const HostFetchResult r = host_->fetch({t_index, host_sector_bytes_});
    frame_.host_retries += r.retries;
    // Corrupted payloads crossed the bus before being discarded.
    frame_.host_bytes += host_sector_bytes_ * r.corrupt_transfers;
    if (!r.success)
        ++frame_.host_failures;
    // Rare occurrences only — a healthy fetch emits nothing.
    if (!r.success)
        event("host.fetch.failed", "host");
    else if (r.retries)
        event("host.fetch.retried", "host");
    return r.success;
}

void
CacheSim::degradeToResidentMip(uint32_t x, uint32_t y, uint32_t mip)
{
    const TiledLayout *layout = l2p_ ? l2_layout_ : l1_layout_;
    const uint32_t levels = layout->levels();
    for (uint32_t m = mip + 1; m < levels; ++m) {
        const uint32_t shift = m - mip;
        const uint32_t cx = x >> shift;
        const uint32_t cy = y >> shift;
        bool resident;
        if (l2p_) {
            const VirtualBlock vb = l2_layout_->blockOf(bound_, cx, cy, m);
            resident = l2p_->probe(tstart_ + vb.l2_block, vb.l1_sub);
        } else {
            resident = l1_.probe(l1_layout_->blockKeyOf(bound_, cx, cy, m));
        }
        if (!resident)
            continue;
        ++frame_.degraded_accesses;
        frame_.degraded_mip_bias += shift;
        if (l2p_) {
            // The coarse sector is read from L2 and parked in L1 so an
            // immediate repeat hits on-chip.
            frame_.l2_read_bytes += cfg_.l1.lineBytes();
            const uint64_t ck = l1_layout_->blockKeyOf(bound_, cx, cy, m);
            if (!l1_.probe(ck))
                l1_.fill(ck);
        }
        return;
    }
    // Hard failure: nothing coarser is resident either. The fetch was
    // already counted in host_failures; the gap host_failures -
    // degraded_accesses is the hard-failure count.
}

CacheFrameStats
CacheSim::endFrame()
{
    drainSharedL2();
    if (profiler_) [[unlikely]]
        profiler_->endFrame(frame_.accesses);
    CacheFrameStats out = frame_;
    totals_.add(out);
    frame_ = {};
    ++frames_;
    return out;
}

void
CacheFrameStats::save(SnapshotWriter &w) const
{
    w.u64(accesses);
    w.u64(l1_misses);
    w.u64(l2_full_hits);
    w.u64(l2_partial_hits);
    w.u64(l2_full_misses);
    w.u64(host_bytes);
    w.u64(l2_read_bytes);
    w.u64(tlb_probes);
    w.u64(tlb_hits);
    w.u32(victim_steps_max);
    w.u64(host_retries);
    w.u64(host_failures);
    w.u64(degraded_accesses);
    w.u64(degraded_mip_bias);
    w.u64(l1_compulsory);
    w.u64(l1_capacity);
    w.u64(l1_conflict);
    w.u64(l2_compulsory);
    w.u64(l2_capacity);
    w.u64(l2_conflict);
}

void
CacheFrameStats::load(SnapshotReader &r)
{
    accesses = r.u64();
    l1_misses = r.u64();
    l2_full_hits = r.u64();
    l2_partial_hits = r.u64();
    l2_full_misses = r.u64();
    host_bytes = r.u64();
    l2_read_bytes = r.u64();
    tlb_probes = r.u64();
    tlb_hits = r.u64();
    victim_steps_max = r.u32();
    host_retries = r.u64();
    host_failures = r.u64();
    degraded_accesses = r.u64();
    degraded_mip_bias = r.u64();
    l1_compulsory = r.u64();
    l1_capacity = r.u64();
    l1_conflict = r.u64();
    l2_compulsory = r.u64();
    l2_capacity = r.u64();
    l2_conflict = r.u64();
}

namespace {
constexpr uint32_t kSimTag = snapTag("SIM ");
} // namespace

void
CacheSim::save(SnapshotWriter &w) const
{
    if (l2_queued_ != 0)
        throw std::logic_error("CacheSim '" + label_ +
                               "': save() with L1 misses still queued for "
                               "the shared L2; call endFrame() first");
    w.section(kSimTag);
    // Component-presence flags: a snapshot taken under a different
    // architecture (pull vs L2, TLB on/off, faults on/off) must fail
    // typed, not misparse.
    uint8_t flags = 0;
    if (l2_)
        flags |= 1u;
    if (tlb_)
        flags |= 2u;
    if (host_)
        flags |= 4u;
    if (l1_class_)
        flags |= 8u;
    if (profiler_)
        flags |= 16u;
    w.u8(flags);
    l1_.save(w);
    if (l2_)
        l2_->save(w);
    if (tlb_)
        tlb_->save(w);
    if (host_) {
        host_->save(w);
        faulty_->injector().save(w);
    }
    if (l1_class_) {
        l1_class_->save(w);
        if (l2_class_)
            l2_class_->save(w);
    }
    if (profiler_)
        profiler_->save(w);
    w.u32(bound_);
    w.u64(last_tile_);
    frame_.save(w);
    totals_.save(w);
    w.u32(frames_);
}

void
CacheSim::load(SnapshotReader &r)
{
    r.expectSection(kSimTag, "CacheSim");
    uint8_t expect = 0;
    if (l2_)
        expect |= 1u;
    if (tlb_)
        expect |= 2u;
    if (host_)
        expect |= 4u;
    if (l1_class_)
        expect |= 8u;
    if (profiler_)
        expect |= 16u;
    const uint8_t flags = r.u8();
    if (flags != expect)
        throw Exception(ErrorCode::VersionMismatch,
                        "CacheSim '" + label_ +
                            "': snapshot architecture flags " +
                            std::to_string(flags) + " do not match the "
                            "configured simulator (" +
                            std::to_string(expect) + ")");
    l1_.load(r);
    if (l2_)
        l2_->load(r);
    if (tlb_)
        tlb_->load(r);
    if (host_) {
        host_->load(r);
        faulty_->injector().load(r);
    }
    if (l1_class_) {
        l1_class_->load(r);
        if (l2_class_)
            l2_class_->load(r);
    }
    if (profiler_)
        profiler_->load(r);
    const TextureId bound = r.u32();
    const uint64_t last_tile = r.u64();
    if (bound != 0) {
        // Re-derive the cached layout pointers / tstart / sector size
        // from the texture registry (bindTexture clears the coalescing
        // filter, so restore it afterwards).
        if (bound > textures_.textureCount())
            throw Exception(ErrorCode::Corrupt,
                            "CacheSim '" + label_ +
                                "': snapshot bound texture id " +
                                std::to_string(bound) + " out of range");
        bindTexture(bound);
        last_tile_ = last_tile;
    }
    frame_.load(r);
    totals_.load(r);
    frames_ = r.u32();
}

} // namespace mltc
