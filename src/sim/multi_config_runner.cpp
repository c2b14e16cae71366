#include "sim/multi_config_runner.hpp"

#include <algorithm>
#include <string>

#include "obs/stage.hpp"
#include "raster/access_sink.hpp"
#include "util/log.hpp"
#include "util/serializer.hpp"

namespace mltc {

MultiConfigRunner::MultiConfigRunner(Workload &workload,
                                     const DriverConfig &config)
    : workload_(workload), config_(config)
{
}

CacheSim &
MultiConfigRunner::addSim(const CacheSimConfig &config, std::string label)
{
    sims_.push_back(std::make_unique<CacheSim>(*workload_.textures, config,
                                               std::move(label)));
    return *sims_.back();
}

WorkingSetCollector &
MultiConfigRunner::addWorkingSets(std::vector<uint32_t> l2_tiles,
                                  std::vector<uint32_t> l1_tiles)
{
    working_sets_ = std::make_unique<WorkingSetCollector>(
        *workload_.textures, std::move(l2_tiles), std::move(l1_tiles));
    return *working_sets_;
}

PushArchitectureModel &
MultiConfigRunner::addPushModel()
{
    push_ = std::make_unique<PushArchitectureModel>(*workload_.textures);
    return *push_;
}

void
MultiConfigRunner::addExtraSink(TexelAccessSink *sink)
{
    extra_sinks_.push_back(sink);
}

void
MultiConfigRunner::harvestRow(int frame, const FrameStats &fs,
                              const RowCallback &cb)
{
    FrameRow row;
    row.frame = frame;
    row.raster = fs;
    row.sims.reserve(sims_.size());
    for (auto &sim : sims_)
        row.sims.push_back(sim->endFrame());
    if (working_sets_)
        row.working_sets = working_sets_->endFrame();
    if (push_)
        row.push_bytes = push_->endFrame();
    rows_.push_back(std::move(row));
    publishFrame(rows_.back());
    if (cb)
        cb(rows_.back());
}

void
MultiConfigRunner::publishFrame(const FrameRow &row)
{
    if (ChromeTraceWriter *t = hooks().tracer()) {
        for (size_t i = 0; i < sims_.size(); ++i) {
            const CacheFrameStats &s = row.sims[i];
            const std::string &label = sims_[i]->label();
            const double sector_misses = static_cast<double>(
                s.l2_partial_hits + s.l2_full_misses);
            t->counter(
                "miss_rates/" + label,
                {{"l1", s.accesses ? static_cast<double>(s.l1_misses) /
                                         static_cast<double>(s.accesses)
                                   : 0.0},
                 {"l2_sector",
                  s.l1_misses ? sector_misses /
                                    static_cast<double>(s.l1_misses)
                              : 0.0},
                 {"tlb", s.tlb_probes
                             ? 1.0 - static_cast<double>(s.tlb_hits) /
                                         static_cast<double>(s.tlb_probes)
                             : 0.0}});
            t->counter("agp_bytes/" + label,
                       {{"host", static_cast<double>(s.host_bytes)},
                        {"l2_read", static_cast<double>(s.l2_read_bytes)}});
        }
    }

    if (!obs_ || !obs_->metrics().enabled())
        return;
    MetricsRegistry &m = obs_->metrics();
    // Batch the frame's registry updates under the scrape lock so a
    // concurrent /metrics render never sees a half-published frame.
    auto reg_guard = m.updateGuard();
    for (size_t i = 0; i < sims_.size(); ++i) {
        const CacheSim &sim = *sims_[i];
        const CacheFrameStats &tot = sim.totals();
        const CacheFrameStats &fr = row.sims[i];
        const MetricLabels ls{{"sim", sim.label()}};
        // Counters are cumulative (consumers diff adjacent rows);
        // everything is *derived* from simulator totals each frame.
        m.counter("accesses", ls).set(tot.accesses);
        m.counter("l1.miss", ls).set(tot.l1_misses);
        m.counter("l2.full_hit", ls).set(tot.l2_full_hits);
        m.counter("l2.partial_hit", ls).set(tot.l2_partial_hits);
        m.counter("l2.full_miss", ls).set(tot.l2_full_misses);
        m.counter("host.bytes", ls).set(tot.host_bytes);
        m.counter("l2.read_bytes", ls).set(tot.l2_read_bytes);
        m.counter("tlb.probe", ls).set(tot.tlb_probes);
        m.counter("tlb.hit", ls).set(tot.tlb_hits);
        m.counter("host.retry", ls).set(tot.host_retries);
        m.counter("host.failure", ls).set(tot.host_failures);
        m.counter("degraded.access", ls).set(tot.degraded_accesses);
        // Gauges carry this frame's instantaneous rates.
        m.gauge("l1.hit_rate", ls).set(fr.l1HitRate());
        m.gauge("l2.full_hit_rate", ls).set(fr.l2FullHitRate());
        m.gauge("tlb.hit_rate", ls).set(fr.tlbHitRate());
        if (sim.config().classify_misses) {
            auto cls = [&](const char *name, const char *cls_name,
                           uint64_t v) {
                MetricLabels l = ls;
                l.push_back({"class", cls_name});
                m.counter(name, l).set(v);
            };
            cls("l1.miss.class", "compulsory", tot.l1_compulsory);
            cls("l1.miss.class", "capacity", tot.l1_capacity);
            cls("l1.miss.class", "conflict", tot.l1_conflict);
            if (sim.l2Classifier()) {
                cls("l2.miss.class", "compulsory", tot.l2_compulsory);
                cls("l2.miss.class", "capacity", tot.l2_capacity);
                cls("l2.miss.class", "conflict", tot.l2_conflict);
            }
        }
        if (const L2TextureCache *l2 = sim.l2()) {
            const Histogram &vh = l2->victimStepsHistogram();
            m.gauge("l2.victim_steps.p50", ls).set(
                static_cast<double>(vh.percentile(0.50)));
            m.gauge("l2.victim_steps.p99", ls).set(
                static_cast<double>(vh.percentile(0.99)));
        }
        if (const HostFetchPath *hp = sim.hostPath()) {
            const Histogram &lh = hp->latencyHistogram();
            m.gauge("host.fetch_us.p50", ls).set(
                static_cast<double>(lh.percentile(0.50)));
            m.gauge("host.fetch_us.p99", ls).set(
                static_cast<double>(lh.percentile(0.99)));
        }
    }
    if (obs_->metricsSink())
        m.writeFrameSnapshot(*obs_->metricsSink(), row.frame);
}

void
MultiConfigRunner::run(const RowCallback &cb)
{
    ResilienceConfig rc;
    rc.audit = AuditLevel::Off;
    const RunManifest manifest = runSupervised(rc, cb);
    // No manifest reaches run()'s caller: fail as loudly as the
    // throwing simulator would have, once the clip is done.
    const ManifestEntry *first = nullptr;
    for (const ManifestEntry &e : manifest.entries)
        if (e.quarantined &&
            (first == nullptr || e.quarantined_at < first->quarantined_at))
            first = &e;
    if (first != nullptr)
        throw Exception(first->error.code, first->error.message);
}

double
MultiConfigRunner::averageHostBytesPerFrame(size_t idx) const
{
    if (rows_.empty())
        return 0.0;
    uint64_t total = 0;
    for (const auto &row : rows_)
        total += row.sims[idx].host_bytes;
    return static_cast<double>(total) / static_cast<double>(rows_.size());
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

namespace {

constexpr uint32_t kRunTag = snapTag("RUN ");

void
saveFrameStats(SnapshotWriter &w, const FrameStats &fs)
{
    w.u64(fs.objects_visible);
    w.u64(fs.triangles_in);
    w.u64(fs.triangles_drawn);
    w.u64(fs.pixels_textured);
    w.u64(fs.texel_accesses);
}

void
loadFrameStats(SnapshotReader &r, FrameStats &fs)
{
    fs.objects_visible = r.u64();
    fs.triangles_in = r.u64();
    fs.triangles_drawn = r.u64();
    fs.pixels_textured = r.u64();
    fs.texel_accesses = r.u64();
}

void
saveWorkingSet(SnapshotWriter &w, const FrameWorkingSet &ws)
{
    w.u64(ws.pixel_refs);
    w.u64(ws.textures_touched);
    w.u64(ws.push_bytes);
    w.u64(ws.loaded_bytes);
    w.u32(static_cast<uint32_t>(ws.l2.size()));
    for (const auto &e : ws.l2) {
        w.u32(e.l2_tile);
        w.u64(e.blocks_touched);
        w.u64(e.blocks_new);
    }
    w.u32(static_cast<uint32_t>(ws.l1.size()));
    for (const auto &e : ws.l1) {
        w.u32(e.l1_tile);
        w.u64(e.tiles_touched);
        w.u64(e.tiles_new);
    }
}

void
loadWorkingSet(SnapshotReader &r, FrameWorkingSet &ws)
{
    ws.pixel_refs = r.u64();
    ws.textures_touched = r.u64();
    ws.push_bytes = r.u64();
    ws.loaded_bytes = r.u64();
    ws.l2.resize(r.u32());
    for (auto &e : ws.l2) {
        e.l2_tile = r.u32();
        e.blocks_touched = r.u64();
        e.blocks_new = r.u64();
    }
    ws.l1.resize(r.u32());
    for (auto &e : ws.l1) {
        e.l1_tile = r.u32();
        e.tiles_touched = r.u64();
        e.tiles_new = r.u64();
    }
}

} // namespace

void
MultiConfigRunner::saveCheckpoint(const std::string &path,
                                  uint32_t next_frame) const
{
    SnapshotWriter w(path);
    // Generational commit: the last good checkpoint survives as
    // `<path>.prev` so a torn commit (crash or injected fault) can
    // never leave a resume with nothing valid to load.
    w.keepPrevious(true);
    w.section(kRunTag);

    // Driver configuration fingerprint: resuming under a different
    // resolution/filter/length would not reproduce the straight run.
    w.u32(static_cast<uint32_t>(config_.width));
    w.u32(static_cast<uint32_t>(config_.height));
    w.u8(static_cast<uint8_t>(config_.filter));
    w.u32(static_cast<uint32_t>(config_.frames));
    w.u8(config_.z_prepass ? 1 : 0);

    w.u32(next_frame);

    w.u32(static_cast<uint32_t>(sims_.size()));
    for (size_t i = 0; i < sims_.size(); ++i) {
        w.str(sims_[i]->label());
        const bool dead = i < quarantine_.size() && quarantine_[i].dead;
        w.u8(dead ? 1 : 0);
        if (dead) {
            w.u8(static_cast<uint8_t>(quarantine_[i].error.code));
            w.str(quarantine_[i].error.message);
            w.u32(static_cast<uint32_t>(quarantine_[i].at_frame));
        }
        // Crash-loop state (v5): a resumed run continues the same
        // consecutive-failure count and backoff schedule.
        const SimQuarantine q =
            i < quarantine_.size() ? quarantine_[i] : SimQuarantine{};
        w.u32(q.failures);
        w.u32(static_cast<uint32_t>(q.revive_at_frame + 1));
    }
    for (const auto &sim : sims_)
        sim->save(w);

    w.u8(working_sets_ ? 1 : 0);
    if (working_sets_)
        working_sets_->save(w);
    w.u8(push_ ? 1 : 0);
    if (push_)
        push_->save(w);

    w.u64(rows_.size());
    for (const auto &row : rows_) {
        w.u32(static_cast<uint32_t>(row.frame));
        saveFrameStats(w, row.raster);
        if (row.sims.size() != sims_.size())
            throw Exception(ErrorCode::Corrupt,
                            "saveCheckpoint: row " +
                                std::to_string(row.frame) +
                                " has an inconsistent simulator count");
        for (const auto &s : row.sims)
            s.save(w);
        w.u8(row.working_sets ? 1 : 0);
        if (row.working_sets)
            saveWorkingSet(w, *row.working_sets);
        w.u64(row.push_bytes);
    }

    w.finish();
}

uint32_t
MultiConfigRunner::loadCheckpoint(const std::string &path)
{
    SnapshotReader r = openSnapshotGeneration(path);
    r.expectSection(kRunTag, "MultiConfigRunner");

    const uint32_t width = r.u32();
    const uint32_t height = r.u32();
    const uint8_t filter = r.u8();
    const uint32_t frames = r.u32();
    const uint8_t z_prepass = r.u8();
    if (width != static_cast<uint32_t>(config_.width) ||
        height != static_cast<uint32_t>(config_.height) ||
        filter != static_cast<uint8_t>(config_.filter) ||
        frames != static_cast<uint32_t>(config_.frames) ||
        (z_prepass != 0) != config_.z_prepass)
        throw Exception(ErrorCode::VersionMismatch,
                        "loadCheckpoint: snapshot driver configuration "
                        "(resolution/filter/frames) does not match this run");

    const uint32_t next_frame = r.u32();

    const uint32_t sim_count = r.u32();
    if (sim_count != sims_.size())
        throw Exception(ErrorCode::VersionMismatch,
                        "loadCheckpoint: snapshot has " +
                            std::to_string(sim_count) +
                            " simulators, this runner has " +
                            std::to_string(sims_.size()));
    quarantine_.assign(sims_.size(), {});
    for (size_t i = 0; i < sims_.size(); ++i) {
        const std::string label = r.str();
        if (label != sims_[i]->label())
            throw Exception(ErrorCode::VersionMismatch,
                            "loadCheckpoint: simulator " + std::to_string(i) +
                                " is labelled '" + label +
                                "' in the snapshot but '" +
                                sims_[i]->label() + "' here");
        if (r.u8() != 0) {
            quarantine_[i].dead = true;
            quarantine_[i].error.code = static_cast<ErrorCode>(r.u8());
            quarantine_[i].error.message = r.str();
            quarantine_[i].at_frame = static_cast<int>(r.u32());
        }
        quarantine_[i].failures = r.u32();
        quarantine_[i].revive_at_frame = static_cast<int>(r.u32()) - 1;
    }
    for (auto &sim : sims_)
        sim->load(r);

    const uint8_t has_ws = r.u8();
    if ((has_ws != 0) != (working_sets_ != nullptr))
        throw Exception(ErrorCode::VersionMismatch,
                        "loadCheckpoint: working-set collector presence "
                        "differs from the snapshot");
    if (working_sets_)
        working_sets_->load(r);
    const uint8_t has_push = r.u8();
    if ((has_push != 0) != (push_ != nullptr))
        throw Exception(ErrorCode::VersionMismatch,
                        "loadCheckpoint: push-model presence differs from "
                        "the snapshot");
    if (push_)
        push_->load(r);

    const uint64_t row_count = r.u64();
    rows_.clear();
    rows_.reserve(row_count);
    for (uint64_t i = 0; i < row_count; ++i) {
        FrameRow row;
        row.frame = static_cast<int>(r.u32());
        loadFrameStats(r, row.raster);
        row.sims.resize(sims_.size());
        for (auto &s : row.sims)
            s.load(r);
        if (r.u8() != 0) {
            FrameWorkingSet ws;
            loadWorkingSet(r, ws);
            row.working_sets = std::move(ws);
        }
        row.push_bytes = r.u64();
        rows_.push_back(std::move(row));
    }
    r.expectEnd();
    return next_frame;
}

// ---------------------------------------------------------------------------
// Supervised run

namespace {

/** Record @p err against @p q at @p frame and stop its simulator. */
void
quarantineSim(SimQuarantine &q, const Error &err, int frame)
{
    q.dead = true;
    q.error = err;
    q.at_frame = frame;
    ++q.failures;
    q.revive_at_frame = -1; // the ladder reschedules from the new failure
    event("sim.quarantined", "resilience", static_cast<double>(frame));
    // A quarantine often precedes an operator killing the run: the dump
    // also pushes the trace and profile so far to disk.
    flightDump("quarantine");
}

/**
 * Per-simulator isolation: forwards the access stream until the wrapped
 * sink throws, then quarantines it (records the error, stops
 * forwarding) so the remaining configurations finish the run.
 */
class GuardedSink final : public TexelAccessSink
{
  public:
    /** Quarantine state lives in @p quarantine[@p index]; a resume
     *  reassigns the vector, so the guard holds it by index. */
    GuardedSink(TexelAccessSink &inner,
                std::vector<SimQuarantine> &quarantine, size_t index,
                const int &current_frame)
        : inner_(inner), quarantine_(quarantine), index_(index),
          current_frame_(current_frame)
    {
    }

    void
    bindTexture(TextureId tid) override
    {
        guard([&] { inner_.bindTexture(tid); });
    }

    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        guard([&] { inner_.accessBatch(refs); });
    }

  private:
    template <typename F>
    void
    guard(F &&forward)
    {
        SimQuarantine &q = quarantine_[index_];
        if (q.dead)
            return;
        try {
            forward();
        } catch (const Exception &e) {
            quarantineSim(q, e.error(), current_frame_);
        } catch (const std::exception &e) {
            quarantineSim(q, {ErrorCode::None, e.what()}, current_frame_);
        } catch (...) {
            quarantineSim(q, {ErrorCode::None, "unknown exception"},
                          current_frame_);
        }
    }

    TexelAccessSink &inner_;
    std::vector<SimQuarantine> &quarantine_;
    size_t index_;
    const int &current_frame_;
};

} // namespace

void
MultiConfigRunner::reviveQuarantined(const ResilienceConfig &rc, int frame)
{
    // A quarantined simulator is revived after an exponential frame
    // backoff while its consecutive failure count stays within
    // --restart-limit; one failure past the limit and the quarantine is
    // permanent. Revival is gated on a clean audit so a corrupted
    // simulator never rejoins.
    for (size_t i = 0; i < sims_.size(); ++i) {
        SimQuarantine &q = quarantine_[i];
        if (!q.dead || q.failures > rc.restart_limit)
            continue;
        if (q.revive_at_frame < 0) {
            const uint32_t shift = std::min<uint32_t>(
                q.failures > 0 ? q.failures - 1 : 0, 16);
            q.revive_at_frame = q.at_frame + static_cast<int>(1u << shift);
        }
        if (frame < q.revive_at_frame)
            continue;
        try {
            if (rc.audit != AuditLevel::Off)
                sims_[i]->audit(rc.audit);
            q.dead = false;
            q.revive_at_frame = -1;
            logInfo("runSupervised: restarted '" + sims_[i]->label() +
                    "' at frame " + std::to_string(frame) + " (failure " +
                    std::to_string(q.failures) + "/" +
                    std::to_string(rc.restart_limit) + ")");
            event("sim.restarted", "runner");
        } catch (const Exception &e) {
            // The revival audit failed: count it as another
            // consecutive failure and back off further.
            q.error = e.error();
            q.at_frame = frame;
            ++q.failures;
            q.revive_at_frame = -1;
        }
    }
}

RunManifest
MultiConfigRunner::runSupervised(const ResilienceConfig &rc,
                                 const RowCallback &cb)
{
    // A resume's loadCheckpoint() replaces both.
    rows_.clear();
    quarantine_.assign(sims_.size(), {});

    int current_frame = 0;
    std::vector<std::unique_ptr<GuardedSink>> guards;
    guards.reserve(sims_.size());
    FanoutSink fanout;
    for (size_t i = 0; i < sims_.size(); ++i) {
        guards.push_back(std::make_unique<GuardedSink>(
            *sims_[i], quarantine_, i, current_frame));
        fanout.add(guards.back().get());
    }
    if (working_sets_)
        fanout.add(working_sets_.get());
    if (push_)
        fanout.add(push_.get());
    for (auto *s : extra_sinks_)
        fanout.add(s);

    Rasterizer raster(config_.width, config_.height);
    raster.setFilter(config_.filter);
    raster.setSink(&fanout);
    raster.setZPrepass(config_.z_prepass);
    const int frames =
        config_.frames > 0 ? config_.frames : workload_.default_frames;
    const float aspect = static_cast<float>(config_.width) /
                         static_cast<float>(config_.height);

    SupervisedSteps steps;
    steps.count = static_cast<uint32_t>(frames);
    steps.step = [&](uint32_t i) {
        const int frame = static_cast<int>(i);
        current_frame = frame;
        if (rc.restart_limit > 0)
            reviveQuarantined(rc, frame);
        {
            Stage frame_stage("frame", "frame");
            const Camera cam = workload_.cameraAtFrame(frame, frames, aspect);
            harvestRow(frame,
                       raster.renderFrame(workload_.scene, cam,
                                          *workload_.textures),
                       cb);
        }

        // Invariant audits at the frame boundary: a violating simulator
        // is quarantined (its state can no longer be trusted) and the
        // healthy configurations continue.
        if (rc.audit != AuditLevel::Off) {
            for (size_t s = 0; s < sims_.size(); ++s) {
                if (quarantine_[s].dead)
                    continue;
                try {
                    sims_[s]->audit(rc.audit);
                } catch (const Exception &e) {
                    quarantineSim(quarantine_[s], e.error(), frame);
                }
            }
        }

        // A clean frame (alive, no failure recorded this frame) resets
        // the consecutive-failure count, so only genuine crash loops
        // accumulate toward --restart-limit.
        for (SimQuarantine &q : quarantine_)
            if (!q.dead && q.failures > 0 && q.at_frame != frame)
                q.failures = 0;
    };
    steps.save = [this](const std::string &path, uint32_t next) {
        saveCheckpoint(path, next);
    };
    steps.load = [this](const std::string &path) {
        return loadCheckpoint(path);
    };
    steps.entries = [this] {
        std::vector<ManifestEntry> out;
        for (size_t i = 0; i < sims_.size(); ++i) {
            const SimQuarantine &q = quarantine_[i];
            out.push_back({sims_[i]->label(), q.dead, q.at_frame, q.error,
                           q.failures});
        }
        return out;
    };
    return superviseRun(rc, steps, obs_);
}

} // namespace mltc
