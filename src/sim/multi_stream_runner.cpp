#include "sim/multi_stream_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/audit.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/observability.hpp"
#include "obs/slo.hpp"
#include "obs/stage.hpp"
#include "raster/rasterizer.hpp"
#include "sim/span_pipe.hpp"
#include "texture/mip_pyramid.hpp"
#include "texture/procedural.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/serializer.hpp"
#include "util/thread_pool.hpp"
#include "workload/registry.hpp"

namespace mltc {

namespace {

constexpr uint32_t kMsTag = snapTag("MST ");

/** Smallest power of two >= @p v. */
uint32_t
pow2Ceil(uint32_t v)
{
    uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/**
 * Remap a texel or quad one or more MIP levels coarser (the governor's
 * LOD bias), in place. Exact: clamps to the biased level's extent so
 * non-square pyramids stay in range.
 */
void
biasRef(const MipPyramid &pyr, uint32_t bias, TexelRef &r)
{
    if (r.kind == TexelRef::kPixel)
        return;
    const uint32_t m = std::min<uint32_t>(
        r.mip + bias, pyr.levels() > 0 ? pyr.levels() - 1 : 0u);
    const uint32_t shift = m - r.mip;
    const Image &lvl = pyr.level(m);
    r.x0 = std::min(r.x0 >> shift, lvl.width() - 1);
    r.y0 = std::min(r.y0 >> shift, lvl.height() - 1);
    if (r.kind == TexelRef::kQuad) {
        r.x1 = std::min(r.x1 >> shift, lvl.width() - 1);
        r.y1 = std::min(r.y1 >> shift, lvl.height() - 1);
    }
    r.mip = static_cast<uint16_t>(m);
}

/**
 * Forwards a stream to its simulator with the governor's LOD bias
 * applied: every texel and quad goes biasRef() levels coarser, in
 * spans of at most kChunk refs.
 */
class LodBiasSink final : public TexelAccessSink
{
  public:
    LodBiasSink(TexelAccessSink &next, const TextureManager &textures,
                uint32_t bias)
        : next_(next), textures_(textures), bias_(bias)
    {
    }

    void
    bindTexture(TextureId tid) override
    {
        pyr_ = &textures_.texture(tid).pyramid;
        next_.bindTexture(tid);
    }

    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        while (!refs.empty()) {
            const size_t n = std::min(refs.size(), kChunk);
            for (size_t i = 0; i < n; ++i) {
                buf_[i] = refs[i];
                biasRef(*pyr_, bias_, buf_[i]);
            }
            next_.accessBatch({buf_, n});
            refs = refs.subspan(n);
        }
    }

  private:
    static constexpr size_t kChunk = 1024;
    TexelAccessSink &next_;
    const TextureManager &textures_;
    const uint32_t bias_;
    const MipPyramid *pyr_ = nullptr;
    TexelRef buf_[kChunk];
};

/** SLO metric names the multi-stream runner can sample per round. */
constexpr const char *kSloMetrics[] = {
    "stream.miss_rate.l1", "stream.miss_rate.l2", "stream.host_mb",
    "stream.lod_bias"};

bool
isStreamSloMetric(const std::string &name)
{
    for (const char *m : kSloMetrics)
        if (name == m)
            return true;
    return false;
}

/** Sample @p metric from one stream's freshly harvested round row. */
double
sloSample(const std::string &metric, const StreamRoundRow &row)
{
    if (metric == "stream.miss_rate.l1")
        return row.accesses == 0
                   ? 0.0
                   : static_cast<double>(row.l1_misses) /
                         static_cast<double>(row.accesses);
    if (metric == "stream.miss_rate.l2") {
        const uint64_t lookups =
            row.l2_full_hits + row.l2_partial_hits + row.l2_full_misses;
        return lookups == 0 ? 0.0
                            : static_cast<double>(row.l2_full_misses) /
                                  static_cast<double>(lookups);
    }
    if (metric == "stream.host_mb")
        return static_cast<double>(row.host_bytes) / (1024.0 * 1024.0);
    if (metric == "stream.lod_bias")
        return static_cast<double>(row.lod_bias);
    return std::numeric_limits<double>::quiet_NaN();
}

std::string
formatBurn(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

} // namespace

MultiStreamRunner::MultiStreamRunner(const MultiStreamConfig &config)
    : cfg_(config),
      governor_(static_cast<uint32_t>(config.streams.size()),
                BandwidthGovernorConfig{config.stream_budget_bytes, 4})
{
    if (cfg_.streams.empty())
        throw std::invalid_argument(
            "MultiStreamRunner: at least one stream is required");
    if (cfg_.rounds == 0)
        throw std::invalid_argument(
            "MultiStreamRunner: at least one round is required");

    // One pool for the runner's life: the build below and every round
    // of run() share its workers, so no thread count exceeds --jobs.
    pool_ = jobsPool(cfg_.jobs == 0 ? ThreadPool::defaultJobs()
                                    : cfg_.jobs);
    buildStreams();

    // The shared L2's page table spans every stream's texture set; it
    // must be built after the last texture is registered.
    std::vector<TextureManager *> managers;
    managers.reserve(streams_.size());
    for (auto &st : streams_)
        managers.push_back(&st->textures());

    L2Config l2cfg;
    l2cfg.size_bytes = cfg_.l2_bytes;
    l2cfg.l2_tile = cfg_.l2_tile;
    l2cfg.l1_tile = cfg_.l1_tile;
    l2_ = std::make_unique<L2TextureCache>(managers, l2cfg, cfg_.share);

    for (uint32_t i = 0; i < streams_.size(); ++i) {
        StreamRuntime &st = *streams_[i];
        CacheSimConfig sc = CacheSimConfig::pull(cfg_.l1_bytes, cfg_.l1_tile);
        sc.classify_misses = cfg_.classify_misses;
        st.sim = std::make_unique<CacheSim>(st.textures(), sc, st.name);
        st.sim->attachSharedL2(l2_.get(), i);
        st.tracker = std::make_unique<ReuseDistanceTracker>(1.0);
        st.sim->setL2BlockTracker(st.tracker.get());
    }

    rows_.resize(streams_.size());
    last_noisy_.assign(streams_.size(), 0);
}

MultiStreamRunner::~MultiStreamRunner() = default;

void
MultiStreamRunner::buildStreams()
{
    // Each distinct workload is built once; the tenants that name it
    // share the immutable result. Every build, and every thrasher's
    // texture, is one job on the pool.
    std::vector<std::string> names;
    std::vector<StreamRuntime *> thrashers;
    for (uint32_t i = 0; i < cfg_.streams.size(); ++i) {
        const StreamSpec &spec = cfg_.streams[i];
        auto st = std::make_unique<StreamRuntime>();
        st->spec = spec;
        st->name = std::to_string(i) + ":" + spec.workload + "/" +
                   filterModeName(spec.filter);
        if (spec.workload == kThrasherWorkload) {
            thrashers.push_back(st.get());
        } else {
            if (std::find(names.begin(), names.end(), spec.workload) ==
                names.end())
                names.push_back(spec.workload);
            st->raster = std::make_unique<Rasterizer>(cfg_.width, cfg_.height);
            st->raster->setFilter(spec.filter);
        }
        streams_.push_back(std::move(st));
    }

    std::vector<std::shared_ptr<const Workload>> built(names.size());
    parallelFor(pool_.get(), names.size() + thrashers.size(),
                [&](size_t k) {
                    if (k < names.size())
                        built[k] = std::make_shared<const Workload>(
                            buildWorkload(names[k], pool_.get()));
                    else
                        buildThrasher(*thrashers[k - names.size()]);
                });
    for (auto &st : streams_) {
        const auto it =
            std::find(names.begin(), names.end(), st->spec.workload);
        if (it != names.end())
            st->workload = built[static_cast<size_t>(it - names.begin())];
    }
}

void
MultiStreamRunner::buildThrasher(StreamRuntime &st) const
{
    // A checker texture spanning at least twice the L2 block count so a
    // linear sweep never re-hits before eviction.
    const uint64_t l2_blocks =
        cfg_.l2_bytes / (cfg_.l2_tile * cfg_.l2_tile * 4ull);
    uint64_t edge_blocks = 1;
    while (edge_blocks * edge_blocks < 2 * l2_blocks)
        ++edge_blocks;
    uint32_t side =
        pow2Ceil(static_cast<uint32_t>(edge_blocks) * cfg_.l2_tile);
    side = std::min(side, 4096u);
    st.thrasher_textures = std::make_unique<TextureManager>();
    st.thrasher_tid = st.thrasher_textures->load(
        "thrasher", MipPyramid(makeChecker(side, cfg_.l2_tile, 0xFF808080u,
                                           0xFFC0C0C0u)));
    st.thrasher_grid = side / cfg_.l2_tile;
}

uint64_t
MultiStreamRunner::feedThrasher(StreamRuntime &st, TexelAccessSink &sink)
{
    // Two L2 capacities' worth of distinct blocks per round, visited
    // in a deterministic linear sweep that persists its cursor.
    const uint64_t l2_blocks =
        cfg_.l2_bytes / (cfg_.l2_tile * cfg_.l2_tile * 4ull);
    const uint64_t total =
        static_cast<uint64_t>(st.thrasher_grid) * st.thrasher_grid;
    const uint64_t per_round = std::min(2 * l2_blocks, total);

    std::vector<TexelRef> refs;
    refs.reserve(per_round);
    for (uint64_t i = 0; i < per_round; ++i) {
        const uint64_t b = (st.thrasher_cursor + i) % total;
        const uint32_t bx = static_cast<uint32_t>(b % st.thrasher_grid);
        const uint32_t by = static_cast<uint32_t>(b / st.thrasher_grid);
        refs.push_back(
            TexelRef::texel(bx * cfg_.l2_tile, by * cfg_.l2_tile, 0));
    }
    sink.bindTexture(st.thrasher_tid);
    sink.accessBatch(refs);
    return (st.thrasher_cursor + per_round) % total;
}

void
MultiStreamRunner::renderStream(StreamRuntime &st, SpanPipe &pipe,
                                uint32_t round, uint32_t bias)
{
    // The producer renders into the pipe; the sim consumes it on the
    // run's pool, in order, while the producer moves on.
    LodBiasSink biased(pipe, st.textures(), bias);
    TexelAccessSink &sink =
        bias != 0 ? static_cast<TexelAccessSink &>(biased) : pipe;
    uint64_t cursor = st.thrasher_cursor;
    try {
        if (st.workload) {
            const int total = st.workload->default_frames;
            const int frame = static_cast<int>(round + st.spec.phase) % total;
            const float aspect = static_cast<float>(cfg_.width) /
                                 static_cast<float>(cfg_.height);
            st.raster->setSink(&sink);
            st.raster->renderFrame(
                st.workload->scene,
                st.workload->cameraAtFrame(frame, total, aspect),
                st.textures());
        } else {
            cursor = feedThrasher(st, sink);
        }
    } catch (...) {
        // What was produced before the throw still reaches the sim, as
        // it would have inline; a sim error among it takes precedence.
        pipe.finish();
        throw;
    }
    pipe.finish();
    // As inline, the cursor moves only once the sim took the batch.
    st.thrasher_cursor = cursor;
}

void
MultiStreamRunner::runLegs(uint32_t round, ThreadPool *pool,
                           std::span<const std::unique_ptr<SpanPipe>> pipes)
{
    std::vector<uint32_t> live;
    for (uint32_t i = 0; i < streams_.size(); ++i)
        if (!streams_[i]->dead)
            live.push_back(i);
    // Every live tenant renders: the round is atomic, and cancellation
    // is seen only between rounds (superviseRun()'s step boundary).
    parallelFor(pool, live.size(), [&](size_t k) {
        const uint32_t i = live[k];
        StreamRuntime &st = *streams_[i];
        // Samples taken while the leg runs roll up under "leg:<name>";
        // hardware counters (when available) bracket the whole leg.
        Stage leg_stage(annotate("leg:" + st.name), /*counters=*/true);
        // A failing leg keeps its typed error; the serial phase
        // quarantines it in stream order. The bias depends only on this
        // stream's earlier rounds.
        try {
            renderStream(st, *pipes[i], round, governor_.bias(i));
        } catch (const Exception &e) {
            st.leg_error = e.error();
        } catch (const std::exception &e) {
            st.leg_error = Error{ErrorCode::None, e.what()};
        }
    });
}

void
MultiStreamRunner::harvestRow(uint32_t index, uint32_t round)
{
    StreamRuntime &st = *streams_[index];
    const CacheFrameStats fr = st.sim->endFrame();
    const L2StreamStats &ls = l2_->streamStats(index);

    StreamRoundRow row;
    row.round = round;
    row.accesses = fr.accesses;
    row.l1_misses = fr.l1_misses;
    row.l2_full_hits = fr.l2_full_hits;
    row.l2_partial_hits = fr.l2_partial_hits;
    row.l2_full_misses = fr.l2_full_misses;
    row.host_bytes = fr.host_bytes;
    row.cross_evictions = ls.cross_evictions;
    row.quota_blocks = l2_->quotas()[index];
    row.alloc_blocks = l2_->streamAllocated(index);
    row.lod_bias = governor_.bias(index);
    rows_[index].push_back(row);

    governor_.observe(index, fr.host_bytes);

    // Feed the flight recorder's bounded ring: cheap per-round deltas
    // so a post-mortem bundle shows each tenant's final trajectory.
    char fname[32];
    std::snprintf(fname, sizeof(fname), "s%u.l1_misses", index);
    flightMetric(fname, static_cast<double>(fr.l1_misses));
    std::snprintf(fname, sizeof(fname), "s%u.host_bytes", index);
    flightMetric(fname, static_cast<double>(fr.host_bytes));
}

void
MultiStreamRunner::quarantineStream(uint32_t index, uint32_t round,
                                    Error error)
{
    StreamRuntime &st = *streams_[index];
    if (st.dead)
        return;
    st.dead = true;
    st.error = std::move(error);
    st.quarantined_at = round;
    // Hand the dead tenant's blocks back to the survivors.
    l2_->releaseStream(index);

    StreamRoundRow row;
    row.round = round;
    row.quarantined = 1;
    rows_[index].push_back(row);

    // A tenant death is exactly what the flight recorder exists for:
    // mark it in the ring, then land the bundle while we still can.
    event("stream.quarantined", "resilience", static_cast<double>(index));
    flightDump("quarantine");
}

void
MultiStreamRunner::repartition(uint32_t round)
{
    const uint64_t blocks = l2_->config().blocks();
    const uint32_t k = streamCount();

    // Marginal utility of growing stream s from q to q+chunk blocks,
    // in absolute misses saved (MRC delta times access volume).
    const uint64_t chunk = std::max<uint64_t>(1, blocks / 64);
    auto gain = [&](uint32_t s, uint64_t q) {
        const ReuseDistanceTracker &t = *streams_[s]->tracker;
        return (t.missRatio(q) - t.missRatio(q + chunk)) *
               static_cast<double>(t.totalAccesses());
    };

    // Noisy-neighbor detection: a stream holding more than its fair
    // share whose own marginal utility is dwarfed by what some victim
    // would gain from the same blocks.
    std::vector<uint8_t> noisy(k, 0);
    for (uint32_t s = 0; s < k; ++s) {
        if (streams_[s]->dead)
            continue;
        if (l2_->streamAllocated(s) <= blocks / k)
            continue;
        const uint64_t held = l2_->streamAllocated(s);
        const double keep = gain(s, held > chunk ? held - chunk : 0);
        for (uint32_t v = 0; v < k; ++v) {
            if (v == s || streams_[v]->dead)
                continue;
            if (gain(v, l2_->streamAllocated(v)) > 2.0 * keep) {
                noisy[s] = 1;
                break;
            }
        }
    }
    for (uint32_t s = 0; s < k; ++s) {
        if (!rows_[s].empty() && rows_[s].back().round == round)
            rows_[s].back().noisy = noisy[s];
        last_noisy_[s] = noisy[s];
    }

    if (cfg_.share != L2SharePolicy::Utility)
        return;

    // Greedy hill-climb: hand out the pool chunk by chunk to whichever
    // live stream's miss-ratio curve pays most for it.
    std::vector<uint64_t> q(k, 1);
    uint64_t remaining = blocks - k;
    while (remaining > 0) {
        const uint64_t give = std::min(chunk, remaining);
        uint32_t best = k;
        double best_gain = -1.0;
        for (uint32_t s = 0; s < k; ++s) {
            if (streams_[s]->dead)
                continue;
            const double g = gain(s, q[s]);
            if (g > best_gain) {
                best_gain = g;
                best = s;
            }
        }
        if (best == k)
            break; // every stream dead; keep the floor quotas
        q[best] += give;
        remaining -= give;
    }
    // Dead streams keep their 1-block floor; fold leftover (all-dead
    // case) into stream 0 so the quota invariant (sum == blocks) holds.
    q[0] += remaining;
    l2_->setQuotas(q);
}

void
MultiStreamRunner::publishRound(uint32_t round)
{
    if (!obs_ || !obs_->metrics().enabled())
        return;
    MetricsRegistry &m = obs_->metrics();
    // One guard for the whole round's batch: a concurrent /metrics
    // scrape sees either the previous round or this one, never a
    // half-updated registry.
    auto guard = m.updateGuard();
    for (uint32_t i = 0; i < streams_.size(); ++i) {
        const StreamRuntime &st = *streams_[i];
        const CacheFrameStats &tot = st.sim->totals();
        const L2StreamStats &ls = l2_->streamStats(i);
        const MetricLabels lbl{{"stream", std::to_string(i)}};
        m.counter("accesses", lbl).set(tot.accesses);
        m.counter("l1.miss", lbl).set(tot.l1_misses);
        m.counter("l2.full_hit", lbl).set(tot.l2_full_hits);
        m.counter("l2.partial_hit", lbl).set(tot.l2_partial_hits);
        m.counter("l2.full_miss", lbl).set(tot.l2_full_misses);
        m.counter("host.bytes", lbl).set(tot.host_bytes);
        m.counter("l2.read_bytes", lbl).set(tot.l2_read_bytes);
        m.counter("l2.evictions_suffered", lbl).set(ls.evictions_suffered);
        m.counter("l2.cross_evictions", lbl).set(ls.cross_evictions);
        m.counter("quarantined", lbl).set(st.dead ? 1 : 0);
        m.gauge("l2.stream_miss_rate", lbl).set(ls.missRate());
        m.gauge("l2.quota_blocks", lbl)
            .set(static_cast<double>(l2_->quotas()[i]));
        m.gauge("l2.alloc_blocks", lbl)
            .set(static_cast<double>(l2_->streamAllocated(i)));
        m.gauge("lod_bias", lbl).set(governor_.bias(i));
        if (!rows_[i].empty() && rows_[i].back().round == round)
            m.gauge("noisy", lbl).set(rows_[i].back().noisy);
        if (slo_) {
            const bool alerting = slo_->anyAlerting(i);
            m.gauge("slo.alerting", lbl).set(alerting ? 1.0 : 0.0);
            if (alerting) {
                // Attribute the violating round: an overloaded tenant
                // is being shed by the governor; a victim of a noisy
                // neighbor is thrashing through no fault of its own.
                const char *cause = "other";
                bool neighbor_noisy = false;
                for (uint32_t j = 0; j < streams_.size(); ++j)
                    if (j != i && !streams_[j]->dead && last_noisy_[j])
                        neighbor_noisy = true;
                if (governor_.bias(i) > 0)
                    cause = "overload";
                else if (neighbor_noisy || last_noisy_[i])
                    cause = "thrash";
                m.counter("slo.violation_rounds",
                          {{"cause", cause},
                           {"stream", std::to_string(i)}})
                    .inc();
            }
        }
    }
    // --telemetry-port alone enables the registry with no JSONL sink.
    if (obs_->metricsSink())
        m.writeFrameSnapshot(*obs_->metricsSink(), round);
}

void
MultiStreamRunner::evaluateSlo(uint32_t round)
{
    if (!slo_)
        return;
    const std::vector<SloRule> &rules = slo_->rules();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::vector<double>> values(
        rules.size(), std::vector<double>(streams_.size(), nan));
    for (uint32_t i = 0; i < streams_.size(); ++i) {
        if (streams_[i]->dead)
            continue; // NaN: a dead stream cannot keep an alert burning
        if (rows_[i].empty() || rows_[i].back().round != round)
            continue;
        const StreamRoundRow &row = rows_[i].back();
        for (size_t r = 0; r < rules.size(); ++r)
            values[r][i] = sloSample(rules[r].metric, row);
    }

    for (const SloEvent &ev : slo_->observeFrame(round, values)) {
        const SloRule &rule = rules[ev.rule];
        const std::string stream = std::to_string(ev.entity);
        const char *what = ev.firing ? "slo.fired" : "slo.cleared";
        event(what, "slo", ev.value,
              {{"rule", rule.spec}, {"stream", stream}});
        char val[32];
        std::snprintf(val, sizeof(val), "%.4g", ev.value);
        const std::string line =
            std::string("MultiStreamRunner: SLO '") + rule.spec +
            "' " + (ev.firing ? "fired" : "cleared") + " for stream " +
            stream + " at round " + std::to_string(round) + " (value " +
            val + ", burn fast/slow " + formatBurn(ev.burn_fast) + "/" +
            formatBurn(ev.burn_slow) + ")";
        if (ev.firing)
            logWarn(line);
        else
            logInfo(line);
        if (obs_ && obs_->sloSink()) {
            JsonWriter w;
            w.beginObject();
            w.kv("ts", logTimestampUtc());
            w.kv("event", ev.firing ? "fired" : "cleared");
            w.kv("rule", rule.spec);
            w.kv("metric", rule.metric);
            w.kv("stream", static_cast<uint64_t>(ev.entity));
            w.kv("round", static_cast<uint64_t>(round));
            w.kv("value", ev.value);
            w.kv("burn_fast", ev.burn_fast);
            w.kv("burn_slow", ev.burn_slow);
            w.endObject();
            obs_->sloSink()->writeLine(w.str());
        }
    }
}

void
MultiStreamRunner::publishTelemetry(const char *status, uint32_t next_round,
                                    int checkpoint_write_failures) const
{
    if (!obs_ || !obs_->telemetry())
        return;
    size_t quarantined = 0, alerting = 0;
    for (uint32_t i = 0; i < streams_.size(); ++i) {
        if (streams_[i]->dead)
            ++quarantined;
        if (slo_ && slo_->anyAlerting(i))
            ++alerting;
    }

    JsonWriter h;
    h.beginObject();
    h.kv("status", status);
    h.kv("round", static_cast<uint64_t>(next_round));
    h.kv("rounds", static_cast<uint64_t>(cfg_.rounds));
    h.kv("quarantined", static_cast<uint64_t>(quarantined));
    h.kv("alerting", static_cast<uint64_t>(alerting));
    h.kv("checkpoint_write_failures",
         static_cast<int64_t>(checkpoint_write_failures));
    h.endObject();
    obs_->telemetry()->publishHealth(h.str());

    JsonWriter r;
    r.beginObject();
    r.kv("mode", "streams");
    r.kv("width", cfg_.width);
    r.kv("height", cfg_.height);
    r.kv("rounds", static_cast<uint64_t>(cfg_.rounds));
    r.kv("round", static_cast<uint64_t>(next_round));
    r.kv("share", l2SharePolicyName(cfg_.share));
    r.kv("jobs", static_cast<uint64_t>(cfg_.jobs));
    r.kv("l2_bytes", cfg_.l2_bytes);
    r.key("streams");
    r.beginArray();
    for (uint32_t i = 0; i < streams_.size(); ++i) {
        const StreamRuntime &st = *streams_[i];
        r.beginObject();
        r.kv("index", static_cast<uint64_t>(i));
        r.kv("name", st.name);
        r.kv("workload", st.spec.workload);
        r.kv("seed", st.spec.seed);
        r.kv("status", st.dead ? "quarantined" : "serving");
        r.kv("rounds_completed", static_cast<uint64_t>(rows_[i].size()));
        r.kv("alerting", slo_ ? slo_->anyAlerting(i) : false);
        r.endObject();
    }
    r.endArray();
    r.endObject();
    obs_->telemetry()->publishRunz(r.str());
}

void
MultiStreamRunner::runRound(uint32_t round, AuditLevel audit,
                            ThreadPool *pool,
                            std::span<const std::unique_ptr<SpanPipe>> pipes)
{
    // Fault-injection hooks fire before any work so a round-0 failure
    // means the stream never contributes a byte.
    for (uint32_t i = 0; i < streams_.size(); ++i) {
        const StreamRuntime &st = *streams_[i];
        if (!st.dead && st.spec.fail_at_round >= 0 &&
            static_cast<uint32_t>(st.spec.fail_at_round) == round)
            quarantineStream(i, round,
                             {ErrorCode::Transient,
                              "injected stream fault at round " +
                                  std::to_string(round)});
    }

    using Clock = std::chrono::steady_clock;
    const Clock::time_point legs_start = Clock::now();
    runLegs(round, pool, pipes);
    const Clock::time_point drain_start = Clock::now();

    // Serial in stream order: the only writer of the shared L2, so
    // output bytes cannot depend on leg concurrency.
    for (uint32_t i = 0; i < streams_.size(); ++i) {
        StreamRuntime &st = *streams_[i];
        if (st.dead)
            continue;
        try {
            // Drain+harvest samples roll up under the tenant's own
            // "stream:<name>" root (leg work carries "leg:<name>").
            Stage stream_stage(annotate("stream:" + st.name),
                               /*counters=*/true);
            if (st.leg_error) {
                // The misses queued before the throw still reach the
                // L2, as they would have inline.
                st.sim->drainSharedL2();
            } else {
                harvestRow(i, round);
                st.sim->audit(audit);
            }
        } catch (const Exception &e) {
            if (!st.leg_error)
                st.leg_error = e.error();
        } catch (const std::exception &e) {
            if (!st.leg_error)
                st.leg_error = Error{ErrorCode::None, e.what()};
        }
        if (st.leg_error) {
            quarantineStream(i, round, std::move(*st.leg_error));
            st.leg_error.reset();
        }
    }
    // Where the round's time went, for a post-mortem bundle only.
    const auto ms = [](Clock::duration d) {
        return std::chrono::duration<double, std::milli>(d).count();
    };
    flightMetric("serve.legs_ms", ms(drain_start - legs_start));
    flightMetric("serve.drain_ms", ms(Clock::now() - drain_start));
    try {
        CacheAuditor::checkL2(*l2_, audit);
    } catch (...) {
        // A shared-L2 invariant violation is fatal; capture the last
        // moments before the exception unwinds the run.
        flightDump("audit");
        throw;
    }

    if (cfg_.repartition_every > 0 &&
        (round + 1) % cfg_.repartition_every == 0) {
        const Clock::time_point repartition_start = Clock::now();
        repartition(round);
        flightMetric("serve.repartition_ms",
                     ms(Clock::now() - repartition_start));
    }

    evaluateSlo(round);
    publishRound(round);

    if (cfg_.round_sleep_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg_.round_sleep_ms));
}

RunManifest
MultiStreamRunner::run(const ResilienceConfig &res)
{
    // Reviving a tenant would need quarantine state the MST snapshot
    // does not carry.
    if (res.restart_limit > 0)
        throw Exception(ErrorCode::BadArgument,
                        "--restart-limit: sweeps only; a multi-stream run "
                        "never revives a quarantined stream");
    if (obs_ && !obs_->sloRules().empty()) {
        for (const SloRule &r : obs_->sloRules())
            if (!isStreamSloMetric(r.metric))
                throw Exception(
                    ErrorCode::BadArgument,
                    "--slo: unknown metric '" + r.metric +
                        "' (expected stream.miss_rate.l1, "
                        "stream.miss_rate.l2, stream.host_mb or "
                        "stream.lod_bias)");
        slo_ = std::make_unique<SloTracker>(obs_->sloRules());
    }

    // The legs and every stream's pipe share the runner's pool. The
    // pipes go first, each once its last queued drain task has run.
    ThreadPool *pool = pool_.get();
    std::vector<std::unique_ptr<SpanPipe>> pipes;
    for (auto &st : streams_)
        pipes.push_back(std::make_unique<SpanPipe>(
            *st->sim, pool, annotate("leg:" + st->name)));

    SupervisedSteps steps;
    steps.count = cfg_.rounds;
    steps.entity = "stream";
    steps.step = [&](uint32_t round) {
        runRound(round, res.audit, pool, pipes);
    };
    steps.save = [this](const std::string &path, uint32_t next) {
        saveCheckpoint(path, next);
    };
    steps.load = [this](const std::string &path) {
        return loadCheckpoint(path);
    };
    steps.publish = [this](const char *status, uint32_t next,
                           int write_failures) {
        publishTelemetry(status, next, write_failures);
    };
    steps.entries = [this] {
        std::vector<ManifestEntry> out;
        for (const auto &st : streams_)
            out.push_back({st->name, st->dead,
                           static_cast<int>(st->quarantined_at), st->error,
                           0});
        return out;
    };
    return superviseRun(res, steps, obs_);
}

std::vector<std::string>
MultiStreamRunner::csvColumns()
{
    return {"round",        "accesses",    "l1_misses",
            "l2_full_hits", "l2_partial_hits", "l2_full_misses",
            "host_bytes",   "cross_evictions", "quota_blocks",
            "alloc_blocks", "lod_bias",    "noisy",
            "quarantined"};
}

void
MultiStreamRunner::writeStreamCsv(uint32_t i, const std::string &path) const
{
    CsvWriter csv(path, csvColumns());
    for (const StreamRoundRow &r : rows_[i]) {
        csv.rowStrings({std::to_string(r.round),
                        std::to_string(r.accesses),
                        std::to_string(r.l1_misses),
                        std::to_string(r.l2_full_hits),
                        std::to_string(r.l2_partial_hits),
                        std::to_string(r.l2_full_misses),
                        std::to_string(r.host_bytes),
                        std::to_string(r.cross_evictions),
                        std::to_string(r.quota_blocks),
                        std::to_string(r.alloc_blocks),
                        std::to_string(r.lod_bias),
                        std::to_string(static_cast<unsigned>(r.noisy)),
                        std::to_string(
                            static_cast<unsigned>(r.quarantined))});
    }
    csv.close();
}

void
MultiStreamRunner::saveCheckpoint(const std::string &path,
                                  uint32_t next_round) const
{
    SnapshotWriter w(path);
    // Generational commit: keep the last good round's checkpoint as
    // `<path>.prev` so a torn commit never strands a resume.
    w.keepPrevious(true);
    w.section(kMsTag);

    // Configuration fingerprint: a resumed process must be running the
    // same experiment.
    w.u32(static_cast<uint32_t>(cfg_.width));
    w.u32(static_cast<uint32_t>(cfg_.height));
    w.u32(cfg_.rounds);
    w.u64(cfg_.l1_bytes);
    w.u64(cfg_.l2_bytes);
    w.u32(cfg_.l2_tile);
    w.u32(cfg_.l1_tile);
    w.u8(static_cast<uint8_t>(cfg_.share));
    w.u8(cfg_.classify_misses ? 1 : 0);
    w.u64(cfg_.stream_budget_bytes);
    w.u32(cfg_.repartition_every);
    w.u32(streamCount());
    for (const StreamSpec &s : cfg_.streams) {
        w.str(s.workload);
        w.u8(static_cast<uint8_t>(s.filter));
        w.u32(s.phase);
        w.u64(s.seed);
        w.u32(static_cast<uint32_t>(s.fail_at_round + 1));
    }

    w.u32(next_round);
    l2_->save(w); // the shared L2 is serialized exactly once

    for (uint32_t i = 0; i < streams_.size(); ++i) {
        const StreamRuntime &st = *streams_[i];
        w.u8(st.dead ? 1 : 0);
        w.u8(static_cast<uint8_t>(st.error.code));
        w.str(st.error.message);
        w.u32(st.quarantined_at);
        w.u64(st.thrasher_cursor);
        st.sim->save(w);
        st.tracker->save(w);
    }

    governor_.save(w);

    for (uint32_t i = 0; i < streams_.size(); ++i) {
        const std::vector<StreamRoundRow> &rs = rows_[i];
        w.u32(static_cast<uint32_t>(rs.size()));
        for (const StreamRoundRow &r : rs) {
            w.u32(r.round);
            w.u64(r.accesses);
            w.u64(r.l1_misses);
            w.u64(r.l2_full_hits);
            w.u64(r.l2_partial_hits);
            w.u64(r.l2_full_misses);
            w.u64(r.host_bytes);
            w.u64(r.cross_evictions);
            w.u64(r.quota_blocks);
            w.u64(r.alloc_blocks);
            w.u32(r.lod_bias);
            w.u8(r.noisy);
            w.u8(r.quarantined);
        }
    }

    w.finish();
}

uint32_t
MultiStreamRunner::loadCheckpoint(const std::string &path)
{
    SnapshotReader r = openSnapshotGeneration(path);
    r.expectSection(kMsTag, "MultiStreamRunner");

    auto mismatch = [](const char *what) {
        throw Exception(ErrorCode::VersionMismatch,
                        std::string("MultiStreamRunner: checkpoint ") + what +
                            " differs from this run's configuration");
    };
    if (r.u32() != static_cast<uint32_t>(cfg_.width))
        mismatch("width");
    if (r.u32() != static_cast<uint32_t>(cfg_.height))
        mismatch("height");
    if (r.u32() != cfg_.rounds)
        mismatch("round count");
    if (r.u64() != cfg_.l1_bytes)
        mismatch("L1 size");
    if (r.u64() != cfg_.l2_bytes)
        mismatch("L2 size");
    if (r.u32() != cfg_.l2_tile)
        mismatch("L2 tile");
    if (r.u32() != cfg_.l1_tile)
        mismatch("L1 tile");
    if (r.u8() != static_cast<uint8_t>(cfg_.share))
        mismatch("share policy");
    if (r.u8() != (cfg_.classify_misses ? 1 : 0))
        mismatch("miss classification");
    if (r.u64() != cfg_.stream_budget_bytes)
        mismatch("stream budget");
    if (r.u32() != cfg_.repartition_every)
        mismatch("repartition interval");
    if (r.u32() != streamCount())
        mismatch("stream count");
    for (const StreamSpec &s : cfg_.streams) {
        if (r.str() != s.workload)
            mismatch("stream workload");
        if (r.u8() != static_cast<uint8_t>(s.filter))
            mismatch("stream filter");
        if (r.u32() != s.phase)
            mismatch("stream phase");
        if (r.u64() != s.seed)
            mismatch("stream seed");
        if (r.u32() != static_cast<uint32_t>(s.fail_at_round + 1))
            mismatch("stream fault schedule");
    }

    const uint32_t next_round = r.u32();
    l2_->load(r);

    for (uint32_t i = 0; i < streams_.size(); ++i) {
        StreamRuntime &st = *streams_[i];
        st.dead = r.u8() != 0;
        st.error.code = static_cast<ErrorCode>(r.u8());
        st.error.message = r.str();
        st.quarantined_at = r.u32();
        st.thrasher_cursor = r.u64();
        st.sim->load(r);
        st.tracker->load(r);
    }

    governor_.load(r);

    for (uint32_t i = 0; i < streams_.size(); ++i) {
        const uint32_t n = r.u32();
        std::vector<StreamRoundRow> &rs = rows_[i];
        rs.clear();
        rs.reserve(n);
        for (uint32_t j = 0; j < n; ++j) {
            StreamRoundRow row;
            row.round = r.u32();
            row.accesses = r.u64();
            row.l1_misses = r.u64();
            row.l2_full_hits = r.u64();
            row.l2_partial_hits = r.u64();
            row.l2_full_misses = r.u64();
            row.host_bytes = r.u64();
            row.cross_evictions = r.u64();
            row.quota_blocks = r.u64();
            row.alloc_blocks = r.u64();
            row.lod_bias = r.u32();
            row.noisy = r.u8();
            row.quarantined = r.u8();
            rs.push_back(row);
        }
    }

    r.expectEnd();
    return next_round;
}

} // namespace mltc
