#include "workloads.hpp"

#include <filesystem>
#include <stdexcept>

#include <unistd.h>

#include "golden.hpp"
#include "obs/flight_recorder.hpp"
#include "raster/rasterizer.hpp"
#include "sim/multi_config_runner.hpp"
#include "sim/multi_stream_runner.hpp"
#include "timing_sink.hpp"
#include "trace/trace_io.hpp"
#include "workload/city.hpp"
#include "workload/village.hpp"

namespace perfbench {

namespace {

using mltc::CacheSim;
using mltc::CacheSimConfig;
using mltc::FilterMode;

constexpr int kWidth = 1024; ///< the paper's screen (§3.3)
constexpr int kHeight = 768;
constexpr float kAspect =
    static_cast<float>(kWidth) / static_cast<float>(kHeight);

double
msBetween(int64_t t0, int64_t t1)
{
    return static_cast<double>(t1 - t0) / 1e6;
}

/**
 * A clip: @p frames consecutive frames of the paper animation from
 * @p base, rendered as a loop that starts at an offset the run phase
 * picks. Every phase renders the same frames, so seeds differ in frame
 * order and in where the caches start empty, not in the scenery.
 */
struct ClipPlace
{
    int base = 0;
    int frames = 0;

    /** Paper frame shown at clip frame @p i in phase @p phase. */
    int
    frameAt(int phase, int i) const
    {
        return base + (i + phase * frames / kPhases) % frames;
    }
};

/**
 * The Village (or City) of @p scene_seed (paper seed when empty) with
 * its camera path replaced by @p place's clip: frame i of a
 * place.frames-frame run shows paper frame place.frameAt(phase, i).
 */
std::unique_ptr<mltc::Workload>
buildClip(bool city, std::optional<uint64_t> scene_seed, ClipPlace place,
          int phase)
{
    std::unique_ptr<mltc::Workload> wl;
    if (city) {
        mltc::CityParams p;
        if (scene_seed)
            p.seed = *scene_seed;
        wl = std::make_unique<mltc::Workload>(mltc::buildCity(p));
    } else {
        mltc::VillageParams p;
        if (scene_seed)
            p.seed = *scene_seed;
        wl = std::make_unique<mltc::Workload>(mltc::buildVillage(p));
    }
    const int total = wl->default_frames;
    mltc::CameraPath clip;
    for (int i = 0; i < place.frames; ++i) {
        const mltc::CameraPose pose =
            wl->path.atFrame(place.frameAt(phase, i) % total, total);
        clip.addKey(pose.eye, pose.target);
    }
    wl->path = std::move(clip);
    return wl;
}

struct SimSpec
{
    std::string label;
    CacheSimConfig config;
};

/** Record the rasterizer's side of one traced frame. */
void
addRasterFrame(Layers &L, uint32_t render_span, const mltc::FrameStats &fs,
               const SinkCounters &seen)
{
    ++L.raster_frames;
    L.raster_self_ns += selfNs(L.spans, render_span);
    L.raster_refs += fs.texel_accesses;
    L.pixels += fs.pixels_textured;
    L.triangles += fs.triangles_drawn;
    L.binds += seen.binds;
    L.batches += seen.batches;
    L.batch_refs += seen.refs;
}

/** Record one consumer's access span (child of @p parent) for a frame. */
void
addConsumerAccess(Layers &L, uint32_t parent, const std::string &label,
                  int frame, const SinkCounters &c)
{
    L.span(parent, "core.access:" + label, frame, c.first_ns, c.ns, c.calls);
    ConsumerTotals &t = L.consumers[label];
    t.ns += c.ns;
    t.refs += c.refs;
}

void
addConsumerEndFrame(Layers &L, uint32_t parent, const std::string &label,
                    int frame, int64_t start_ns, int64_t dur_ns)
{
    L.span(parent, "core.endframe:" + label, frame, start_ns, dur_ns);
    ConsumerTotals &t = L.consumers[label];
    t.endframe_ns += dur_ns;
    ++t.frames;
}

/**
 * Rasterizer-driven workloads: the producer renders each clip frame
 * into one or more CacheSims. The untraced run of a multi-consumer
 * workload goes through MultiConfigRunner::run; the traced run composes
 * the same frames from Rasterizer + FanoutSink + CacheSim with a
 * TimingSink in front of every sim.
 */
class RasterBench final : public Bench
{
  public:
    RasterBench(const Options &opts, bool city, FilterMode filter,
                ClipPlace place, std::vector<SimSpec> sims, size_t ref,
                bool via_runner)
        : opts_(opts), city_(city), filter_(filter), place_(place),
          specs_(std::move(sims)), ref_(ref), via_runner_(via_runner)
    {
    }

    const std::vector<std::string> &
    fields() const override
    {
        return cacheStatFields();
    }

    std::vector<std::string>
    consumerLabels() const override
    {
        std::vector<std::string> out;
        for (const SimSpec &s : specs_)
            out.push_back(s.label);
        return out;
    }

    double
    setup() override
    {
        raster_.reset();
        wl_.reset();
        const int64_t t0 = nowNs();
        wl_ = buildClip(city_, opts_.scene_seed, place_, opts_.phase);
        const int64_t t1 = nowNs();
        raster_ = std::make_unique<mltc::Rasterizer>(kWidth, kHeight);
        raster_->setFilter(filter_);

        // Host warm-up: one frame into throwaway consumers, so the
        // measured consumers still start from empty caches.
        auto sims = makeSims();
        mltc::FanoutSink fan;
        for (auto &s : sims)
            fan.add(s.get());
        raster_->setSink(&fan);
        raster_->renderFrame(wl_->scene, camera(0), *wl_->textures);
        for (auto &s : sims)
            s->endFrame();
        raster_->setSink(nullptr);
        return msBetween(t0, t1);
    }

    void
    pass(int64_t deadline_ns, PassOut &out, Layers *layers) override
    {
        if (via_runner_ && layers == nullptr) {
            runnerPass(out);
            return;
        }
        if (via_runner_ && layers->sums.count("composed_frames") == 0) {
            // Once per traced run: the same frames composed by hand,
            // untimed by the decorators, as the runner's baseline.
            PassOut base;
            composedPass(INT64_MAX, base, nullptr);
            for (double ms : base.frame_ms)
                layers->sums["composed_ms"] += ms;
            layers->sums["composed_frames"] += static_cast<double>(base.frame_ms.size());
        }
        composedPass(deadline_ns, out, layers);
    }

    void
    finish(Layers &L, double untraced_frame_ms) const override
    {
        if (via_runner_ && L.sums["composed_frames"] > 0)
            L.extra["sim.runner_ms_per_frame"] = {
                "sim.runner_ms_per_frame",
                untraced_frame_ms - L.sums["composed_ms"] / L.sums["composed_frames"],
                "ms"};
    }

  private:
    std::vector<std::unique_ptr<CacheSim>>
    makeSims() const
    {
        std::vector<std::unique_ptr<CacheSim>> sims;
        for (const SimSpec &s : specs_)
            sims.push_back(std::make_unique<CacheSim>(*wl_->textures,
                                                      s.config, s.label));
        return sims;
    }

    mltc::Camera
    camera(int frame) const
    {
        return wl_->cameraAtFrame(frame, place_.frames, kAspect);
    }

    /** MultiConfigRunner renders the whole clip; the deadline is not consulted. */
    void
    runnerPass(PassOut &out)
    {
        mltc::DriverConfig dc;
        dc.width = kWidth;
        dc.height = kHeight;
        dc.filter = filter_;
        dc.frames = place_.frames;
        mltc::MultiConfigRunner runner(*wl_, dc);
        for (const SimSpec &s : specs_)
            runner.addSim(s.config, s.label);

        int64_t t_prev = nowNs();
        std::string error;
        try {
            runner.run([&](const mltc::FrameRow &) {
                const int64_t t = nowNs();
                out.frame_ms.push_back(msBetween(t_prev, t));
                out.timed_ns += t - t_prev;
                t_prev = t;
            });
        } catch (const std::exception &e) {
            error = e.what();
        }
        for (const mltc::FrameRow &row : runner.rows()) {
            FrameRecord rec;
            rec.frame = row.frame;
            for (const mltc::CacheFrameStats &s : row.sims)
                rec.rows.push_back(statRow(s));
            out.refs += row.raster.texel_accesses;
            out.host_bytes += row.sims[ref_].host_bytes;
            out.frames.push_back(std::move(rec));
        }
        if (!error.empty()) {
            FrameRecord rec;
            rec.frame = static_cast<int>(runner.rows().size());
            rec.ok = false;
            rec.error = error;
            out.frames.push_back(std::move(rec));
        }
    }

    void
    composedPass(int64_t deadline_ns, PassOut &out, Layers *L)
    {
        auto sims = makeSims();
        std::vector<std::unique_ptr<TimingSink>> timers;
        mltc::FanoutSink fan;
        for (auto &s : sims) {
            if (L) {
                timers.push_back(std::make_unique<TimingSink>(*s));
                fan.add(timers.back().get());
            } else {
                fan.add(s.get());
            }
        }
        // A single consumer is fed directly, as a user would wire it.
        mltc::TexelAccessSink *sink = &fan;
        if (sims.size() == 1)
            sink = L ? static_cast<mltc::TexelAccessSink *>(timers[0].get())
                     : sims[0].get();
        raster_->setSink(sink);

        for (int f = 0; f < place_.frames && nowNs() < deadline_ns; ++f) {
            FrameRecord rec;
            rec.frame = f;
            const int64_t t0 = nowNs();
            try {
                const mltc::FrameStats fs =
                    raster_->renderFrame(wl_->scene, camera(f), *wl_->textures);
                const int64_t t_render = nowNs();
                std::vector<int64_t> end_start(sims.size()), end_ns(sims.size());
                for (size_t i = 0; i < sims.size(); ++i) {
                    end_start[i] = nowNs();
                    rec.rows.push_back(statRow(sims[i]->endFrame()));
                    end_ns[i] = nowNs() - end_start[i];
                }
                const int64_t t1 = nowNs();
                out.frame_ms.push_back(msBetween(t0, t1));
                out.timed_ns += t1 - t0;
                out.refs += fs.texel_accesses;
                out.host_bytes += rec.rows[ref_][5]; // host_bytes
                if (L) {
                    const uint32_t fid = L->span(0, "frame", f, t0, t1 - t0);
                    const uint32_t rid =
                        L->span(fid, "raster.render", f, t0, t_render - t0);
                    SinkCounters first;
                    for (size_t i = 0; i < sims.size(); ++i) {
                        const SinkCounters c = timers[i]->take();
                        if (i == 0)
                            first = c;
                        addConsumerAccess(*L, rid, specs_[i].label, f, c);
                        addConsumerEndFrame(*L, fid, specs_[i].label, f,
                                            end_start[i], end_ns[i]);
                    }
                    addRasterFrame(*L, rid, fs, first);
                }
            } catch (const std::exception &e) {
                rec.ok = false;
                rec.error = e.what();
                out.frames.push_back(std::move(rec));
                break;
            }
            out.frames.push_back(std::move(rec));
        }
        raster_->setSink(nullptr);
    }

    Options opts_;
    bool city_;
    FilterMode filter_;
    ClipPlace place_;
    std::vector<SimSpec> specs_;
    size_t ref_; ///< consumer whose host bytes sim_host_mb_per_frame reports
    bool via_runner_;
    std::unique_ptr<mltc::Workload> wl_;
    std::unique_ptr<mltc::Rasterizer> raster_;
};

/**
 * Write-then-read: rasterize the clip into a TraceWriter, then replay
 * the file with TraceReader into one CacheSim. A frame's time is its
 * replay (TraceReader::replayFrame plus CacheSim::endFrame); recording
 * is timed separately.
 */
class TraceBench final : public Bench
{
  public:
    TraceBench(const Options &opts, ClipPlace place)
        : opts_(opts), place_(place),
          spec_{"2KB+4MB", CacheSimConfig::twoLevel(2 * 1024, 4ull << 20)}
    {
    }

    const std::vector<std::string> &
    fields() const override
    {
        return cacheStatFields();
    }

    std::vector<std::string>
    consumerLabels() const override
    {
        return {spec_.label};
    }

    double
    setup() override
    {
        raster_.reset();
        wl_.reset();
        const int64_t t0 = nowNs();
        wl_ = buildClip(false, opts_.scene_seed, place_, opts_.phase);
        const int64_t t1 = nowNs();
        raster_ = std::make_unique<mltc::Rasterizer>(kWidth, kHeight);
        raster_->setFilter(FilterMode::Bilinear);
        CacheSim warm(*wl_->textures, spec_.config, spec_.label);
        raster_->setSink(&warm);
        raster_->renderFrame(wl_->scene, camera(0), *wl_->textures);
        warm.endFrame();
        raster_->setSink(nullptr);
        return msBetween(t0, t1);
    }

    void
    pass(int64_t deadline_ns, PassOut &out, Layers *L) override
    {
        std::filesystem::create_directories(opts_.out_dir);
        const std::string path = opts_.out_dir + "/clip-" +
                                 std::to_string(::getpid()) + ".mltrace";
        try {
            record(path, out, L);
            out.trace_bytes = std::filesystem::file_size(path);
            replay(path, deadline_ns, out, L);
        } catch (const std::exception &e) {
            FrameRecord rec;
            rec.frame = static_cast<int>(out.frames.size());
            rec.ok = false;
            rec.error = e.what();
            out.frames.push_back(std::move(rec));
        }
        raster_->setSink(nullptr);
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }

    void
    finish(Layers &L, double) const override
    {
        auto per = [&](const char *num, const char *den) {
            const double d = L.sums[den];
            return d > 0 ? L.sums[num] / d : 0.0;
        };
        L.extra["trace.write_ns_per_ref"] = {
            "trace.write_ns_per_ref", per("write_ns", "write_refs"), "ns/ref"};
        L.extra["trace.replay_self_ns_per_ref"] = {
            "trace.replay_self_ns_per_ref", per("replay_self_ns", "replay_refs"),
            "ns/ref"};
        L.extra["trace.bytes_per_ref"] = {
            "trace.bytes_per_ref", per("trace_bytes", "write_refs"), "B/ref"};
    }

  private:
    mltc::Camera
    camera(int frame) const
    {
        return wl_->cameraAtFrame(frame, place_.frames, kAspect);
    }

    void
    record(const std::string &path, PassOut &out, Layers *L)
    {
        mltc::TraceWriter writer(path);
        TimingSink timed(writer);
        raster_->setSink(L ? static_cast<mltc::TexelAccessSink *>(&timed)
                           : &writer);
        uint64_t refs = 0;
        for (int f = 0; f < place_.frames; ++f) {
            const int64_t t0 = nowNs();
            const mltc::FrameStats fs =
                raster_->renderFrame(wl_->scene, camera(f), *wl_->textures);
            const int64_t t_render = nowNs();
            writer.endFrame();
            const int64_t t1 = nowNs();
            out.record_ms.push_back(msBetween(t0, t1));
            refs += fs.texel_accesses;
            if (L) {
                const uint32_t fid = L->span(0, "record", f, t0, t1 - t0);
                const uint32_t rid =
                    L->span(fid, "raster.render", f, t0, t_render - t0);
                const SinkCounters c = timed.take();
                L->span(rid, "trace.write", f, c.first_ns, c.ns, c.calls);
                L->span(fid, "trace.endframe", f, t_render, t1 - t_render);
                L->sums["write_ns"] += static_cast<double>(c.ns + (t1 - t_render));
                addRasterFrame(*L, rid, fs, c);
            }
        }
        writer.close();
        raster_->setSink(nullptr);
        out.recorded_refs += refs;
        if (L)
            L->sums["write_refs"] += static_cast<double>(refs);
    }

    void
    replay(const std::string &path, int64_t deadline_ns, PassOut &out,
           Layers *L)
    {
        mltc::TraceReader reader(path);
        CacheSim sim(*wl_->textures, spec_.config, spec_.label);
        TimingSink timed(sim);
        mltc::TexelAccessSink &sink =
            L ? static_cast<mltc::TexelAccessSink &>(timed) : sim;
        for (int f = 0; f < place_.frames && nowNs() < deadline_ns; ++f) {
            FrameRecord rec;
            rec.frame = f;
            const int64_t t0 = nowNs();
            const bool got = reader.replayFrame(sink);
            const int64_t t_replay = nowNs();
            const mltc::CacheFrameStats st = sim.endFrame();
            const int64_t t1 = nowNs();
            if (!got) {
                rec.ok = false;
                rec.error = "trace ended before frame " + std::to_string(f);
                out.frames.push_back(std::move(rec));
                return;
            }
            rec.rows.push_back(statRow(st));
            out.frame_ms.push_back(msBetween(t0, t1));
            out.timed_ns += t1 - t0;
            out.refs += st.accesses;
            out.host_bytes += st.host_bytes;
            if (L) {
                const uint32_t fid = L->span(0, "frame", f, t0, t1 - t0);
                const uint32_t rid =
                    L->span(fid, "trace.replay", f, t0, t_replay - t0);
                addConsumerAccess(*L, rid, spec_.label, f, timed.take());
                addConsumerEndFrame(*L, fid, spec_.label, f, t_replay,
                                    t1 - t_replay);
                L->sums["replay_self_ns"] +=
                    static_cast<double>(selfNs(L->spans, rid));
                L->sums["replay_refs"] += static_cast<double>(st.accesses);
            }
            out.frames.push_back(std::move(rec));
        }
        if (L)
            L->sums["trace_bytes"] += static_cast<double>(out.trace_bytes);
    }

    Options opts_;
    ClipPlace place_;
    SimSpec spec_;
    std::unique_ptr<mltc::Workload> wl_;
    std::unique_ptr<mltc::Rasterizer> raster_;
};

/** Installs a flight recorder for its own lifetime. */
class RecorderInstall
{
  public:
    explicit RecorderInstall(mltc::FlightRecorder &r)
    {
        mltc::installFlightRecorder(&r);
    }
    ~RecorderInstall() { mltc::installFlightRecorder(nullptr); }
    RecorderInstall(const RecorderInstall &) = delete;
    RecorderInstall &operator=(const RecorderInstall &) = delete;
};

/**
 * Multi-tenant serving: four streams share one L2 under the utility
 * policy. A pass is one run() of kRounds rounds from a freshly built
 * runner; a frame is a round, timed between the round marks the runner
 * leaves on the flight recorder. The runner's rasterizers and sims sit
 * behind no sink seam; the traced run therefore attributes producer and
 * L1 consumer time by re-rendering the first rounds of each rendered
 * stream through Rasterizer -> TimingSink -> CacheSim (16 KB pull L1,
 * the streams' private L1) outside the runner.
 */
class ServeBench final : public Bench
{
  public:
    static constexpr uint32_t kRounds = 10;
    static constexpr uint32_t kShadowRounds = 2;

    ServeBench(const Options &opts, ClipPlace place)
        : opts_(opts), place_(place)
    {
        // The runner renders consecutive frames from each tenant's
        // phase, so the run phase shifts the start by one frame. A
        // held-out scene seed moves the phases instead: the runner
        // builds its workloads from the paper seeds. (The runner wraps
        // phases at each animation's length; 411 is the Village's.)
        offset_ = opts.scene_seed ? static_cast<int>(*opts.scene_seed % 411u)
                                  : place_.base + opts.phase;
    }

    const std::vector<std::string> &
    fields() const override
    {
        return streamRowFields();
    }

    std::vector<std::string>
    consumerLabels() const override
    {
        std::vector<std::string> out;
        const mltc::MultiStreamConfig c = config(1);
        for (size_t i = 0; i < c.streams.size(); ++i)
            out.push_back(std::to_string(i) + ":" + c.streams[i].workload + "/" +
                          mltc::filterModeName(c.streams[i].filter));
        return out;
    }

    double
    setup() override
    {
        // Construction builds every stream's workload; one warm-up
        // round runs on this throwaway runner.
        const int64_t t0 = nowNs();
        mltc::MultiStreamRunner runner(config(1));
        const int64_t t1 = nowNs();
        runner.run(mltc::ResilienceConfig{});
        return msBetween(t0, t1);
    }

    void
    pass(int64_t, PassOut &out, Layers *L) override
    {
        const mltc::MultiStreamConfig cfg = config(kRounds);
        std::string error;
        std::unique_ptr<mltc::MultiStreamRunner> runner;
        std::vector<int64_t> round_start_us;
        int64_t t0 = 0, t1 = 0, end_us = 0;
        try {
            runner = std::make_unique<mltc::MultiStreamRunner>(cfg);
            // The runner marks each round start on the process flight
            // recorder; those marks are the only per-round boundary
            // visible from outside.
            mltc::FlightRecorder::Config fc;
            fc.prefix = opts_.out_dir + "/serve";
            mltc::FlightRecorder recorder(fc);
            RecorderInstall install(recorder);
            t0 = nowNs();
            runner->run(mltc::ResilienceConfig{});
            t1 = nowNs();
            recorder.record("bench.end", "bench");
            for (const mltc::FlightEvent &e : recorder.snapshot()) {
                if (e.kind == mltc::FlightEvent::Frame)
                    round_start_us.push_back(e.ts_us);
                else if (std::string(e.name) == "bench.end")
                    end_us = e.ts_us;
            }
        } catch (const std::exception &e) {
            error = e.what();
        }
        if (!error.empty() || !runner) {
            FrameRecord rec;
            rec.ok = false;
            rec.error = error;
            out.frames.push_back(std::move(rec));
            return;
        }
        round_start_us.push_back(end_us);
        for (size_t r = 0; r + 1 < round_start_us.size(); ++r)
            out.frame_ms.push_back(
                static_cast<double>(round_start_us[r + 1] - round_start_us[r]) / 1e3);
        out.timed_ns += t1 - t0;
        for (uint32_t r = 0; r < kRounds; ++r) {
            FrameRecord rec;
            rec.frame = static_cast<int>(r);
            for (uint32_t i = 0; i < runner->streamCount(); ++i) {
                const auto &rows = runner->rows(i);
                if (r >= rows.size() || rows[r].quarantined) {
                    rec.ok = false;
                    rec.error = "stream " + runner->streamName(i) +
                                " quarantined by round " + std::to_string(r);
                    continue;
                }
                rec.rows.push_back(statRow(rows[r]));
                out.refs += rows[r].accesses;
                out.host_bytes += rows[r].host_bytes;
            }
            out.frames.push_back(std::move(rec));
        }
        if (L)
            traced(*runner, t0, t1, *L);
    }

    void
    finish(Layers &L, double untraced_frame_ms) const override
    {
        L.extra["sim.serve_ms_per_round"] = {"sim.serve_ms_per_round",
                                             untraced_frame_ms, "ms"};
    }

  private:
    mltc::MultiStreamConfig
    config(uint32_t rounds) const
    {
        mltc::MultiStreamConfig c;
        c.width = kWidth;
        c.height = kHeight;
        c.rounds = rounds;
        c.l1_bytes = 16ull << 10;
        c.l2_bytes = 4ull << 20;
        c.share = mltc::L2SharePolicy::Utility;
        c.repartition_every = 2;
        c.jobs = opts_.jobs;
        auto stream = [](const char *wl, FilterMode f, int phase) {
            mltc::StreamSpec s;
            s.workload = wl;
            s.filter = f;
            s.phase = static_cast<uint32_t>(phase);
            return s;
        };
        c.streams = {
            stream("village", FilterMode::Trilinear, offset_),
            stream("village", FilterMode::Bilinear, offset_ + 205),
            stream("city", FilterMode::Bilinear, offset_),
            stream(mltc::kThrasherWorkload, FilterMode::Bilinear, 0),
        };
        return c;
    }

    void
    traced(const mltc::MultiStreamRunner &runner, int64_t t0, int64_t t1,
           Layers &L)
    {
        L.span(0, "serve.run", -1, t0, t1 - t0);
        L.victim_steps_max = std::max<uint64_t>(
            L.victim_steps_max, runner.l2().victimStepsHistogram().max());
        for (uint32_t i = 0; i < runner.streamCount(); ++i) {
            const auto &rows = runner.rows(i);
            uint32_t biased = 0;
            for (const mltc::StreamRoundRow &r : rows)
                biased += r.lod_bias > 0;
            const std::string s = runner.streamName(i);
            L.extra["sim.serve_cross_evictions:" + s] = {
                "sim.serve_cross_evictions:" + s,
                rows.empty() ? 0.0 : static_cast<double>(rows.back().cross_evictions),
                "count"};
            L.extra["sim.serve_lod_bias_rounds:" + s] = {
                "sim.serve_lod_bias_rounds:" + s, static_cast<double>(biased),
                "count"};
        }
        shadow(runner.config(), L);
    }

    void
    shadow(const mltc::MultiStreamConfig &cfg, Layers &L)
    {
        if (!village_)
            village_ = std::make_unique<mltc::Workload>(mltc::buildVillage());
        if (!city_)
            city_ = std::make_unique<mltc::Workload>(mltc::buildCity());
        mltc::Rasterizer raster(cfg.width, cfg.height);
        for (size_t i = 0; i < cfg.streams.size(); ++i) {
            const mltc::StreamSpec &spec = cfg.streams[i];
            if (spec.workload == mltc::kThrasherWorkload)
                continue;
            mltc::Workload &wl = spec.workload == "city" ? *city_ : *village_;
            const std::string label = "shadow-l1:" + std::to_string(i);
            CacheSim sim(*wl.textures, CacheSimConfig::pull(cfg.l1_bytes),
                         label);
            TimingSink timed(sim);
            raster.setFilter(spec.filter);
            raster.setSink(&timed);
            const int total = wl.default_frames;
            for (uint32_t r = 0; r < kShadowRounds; ++r) {
                const int frame = static_cast<int>(r + spec.phase) % total;
                const int64_t f0 = nowNs();
                const mltc::FrameStats fs = raster.renderFrame(
                    wl.scene, wl.cameraAtFrame(frame, total, kAspect),
                    *wl.textures);
                const int64_t f_render = nowNs();
                sim.endFrame();
                const int64_t f1 = nowNs();
                const uint32_t fid = L.span(0, "shadow.frame", frame, f0, f1 - f0);
                const uint32_t rid =
                    L.span(fid, "raster.render", frame, f0, f_render - f0);
                const SinkCounters c = timed.take();
                addConsumerAccess(L, rid, label, frame, c);
                addConsumerEndFrame(L, fid, label, frame, f_render,
                                    f1 - f_render);
                addRasterFrame(L, rid, fs, c);
            }
            raster.setSink(nullptr);
        }
    }

    Options opts_;
    ClipPlace place_;
    int offset_ = 0;
    std::unique_ptr<mltc::Workload> village_; ///< shadow attribution only
    std::unique_ptr<mltc::Workload> city_;
};

} // namespace

std::unique_ptr<Bench>
makeBench(const Options &opts)
{
    const std::string &w = opts.workload;
    if (w == "village_tri_1sim")
        return std::make_unique<RasterBench>(
            opts, false, FilterMode::Trilinear, ClipPlace{120, 16},
            std::vector<SimSpec>{
                {"16KB+4MB", CacheSimConfig::twoLevel(16 * 1024, 4ull << 20)}},
            0, false);
    if (w == "city_bi_sweep5")
        return std::make_unique<RasterBench>(
            opts, true, FilterMode::Bilinear, ClipPlace{200, 8},
            std::vector<SimSpec>{
                {"pull-2KB", CacheSimConfig::pull(2 * 1024)},
                {"pull-16KB", CacheSimConfig::pull(16 * 1024)},
                {"2KB+2MB", CacheSimConfig::twoLevel(2 * 1024, 2ull << 20)},
                {"2KB+4MB", CacheSimConfig::twoLevel(2 * 1024, 4ull << 20)},
                {"2KB+8MB", CacheSimConfig::twoLevel(2 * 1024, 8ull << 20)}},
            3, true);
    if (w == "village_trace_replay")
        return std::make_unique<TraceBench>(opts, ClipPlace{120, 3});
    if (w == "serve4_shared_l2")
        return std::make_unique<ServeBench>(opts, ClipPlace{120, 8});
    throw std::invalid_argument("unknown workload '" + w + "'");
}

} // namespace perfbench
