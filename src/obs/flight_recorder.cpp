#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>

#include <sys/stat.h>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace mltc {

namespace {

void
copyTruncated(char *dst, size_t cap, const char *src)
{
    size_t i = 0;
    for (; src && src[i] && i + 1 < cap; ++i)
        dst[i] = src[i];
    dst[i] = '\0';
}

} // namespace

FlightRecorder::FlightRecorder(const Config &config)
    : capacity_(config.capacity == 0 ? 1 : config.capacity),
      prefix_(config.prefix), registry_(config.registry),
      rings_(config.workers == 0 ? 1 : config.workers),
      t0_(std::chrono::steady_clock::now())
{
    for (Ring &ring : rings_)
        ring.slots = std::vector<Slot>(capacity_);
}

FlightRecorder::Ring &
FlightRecorder::ringForThisThread()
{
    // One ring per recording thread while rings last; extra threads
    // share rings round-robin (slot indices still interleave safely
    // through the atomic head, and the seqlock publish keeps readers
    // consistent).
    return rings_[thread_slots_.mine() % rings_.size()];
}

void
FlightRecorder::record(const char *name, const char *cat, uint8_t kind,
                       double value)
{
    Ring &ring = ringForThisThread();
    const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    const uint64_t idx =
        ring.head.fetch_add(1, std::memory_order_relaxed) % capacity_;
    Slot &slot = ring.slots[idx];
    slot.seq.store(0, std::memory_order_release);
    FlightEvent &ev = slot.event;
    ev.seq = seq;
    ev.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - t0_)
                   .count();
    ev.kind = kind;
    copyTruncated(ev.name, sizeof ev.name, name);
    copyTruncated(ev.cat, sizeof ev.cat, cat);
    ev.value = value;
    slot.seq.store(seq, std::memory_order_release);
    if (kind == FlightEvent::Frame)
        last_frame_.store(static_cast<int64_t>(value),
                          std::memory_order_relaxed);
}

std::vector<std::pair<uint32_t, FlightEvent>>
FlightRecorder::collect() const
{
    std::vector<std::pair<uint32_t, FlightEvent>> events;
    for (uint32_t r = 0; r < rings_.size(); ++r) {
        for (const Slot &slot : rings_[r].slots) {
            const uint64_t before =
                slot.seq.load(std::memory_order_acquire);
            if (before == 0)
                continue;
            FlightEvent ev = slot.event;
            if (slot.seq.load(std::memory_order_acquire) != before ||
                ev.seq != before)
                continue; // torn by a concurrent rewrite; skip
            events.emplace_back(r, ev);
        }
    }
    std::sort(events.begin(), events.end(),
              [](const auto &a, const auto &b) {
                  return a.second.seq < b.second.seq;
              });
    return events;
}

std::vector<FlightEvent>
FlightRecorder::snapshot() const
{
    std::vector<FlightEvent> events;
    for (const auto &[ring, ev] : collect())
        events.push_back(ev);
    return events;
}

std::string
FlightRecorder::dump(const std::string &reason)
{
    if (prefix_.empty())
        return "";
    try {
        // Each ring maps onto its own Chrome tid.
        const auto events = collect();

        // --- trace.json ------------------------------------------------
        JsonWriter w;
        const auto meta = [&w](uint64_t tid, const char *what,
                               const std::string &name) {
            w.beginObject().kv("ph", "M").kv("pid", 1).kv("tid", tid);
            w.kv("name", what).key("args").beginObject().kv("name", name);
            w.endObject().endObject();
        };
        // Opens an instant's args object; the caller fills and closes it.
        const auto instant = [&w](uint64_t tid, int64_t ts,
                                  const std::string &name,
                                  const std::string &cat) -> JsonWriter & {
            w.beginObject().kv("ph", "i").kv("pid", 1).kv("tid", tid);
            w.kv("ts", ts).kv("s", "t").kv("name", name).kv("cat", cat);
            return w.key("args").beginObject();
        };
        w.beginObject().key("traceEvents").beginArray();
        meta(1, "process_name", "mltc-flight");
        for (uint32_t r = 0; r < rings_.size(); ++r)
            meta(r + 1, "thread_name", "flight-w" + std::to_string(r));
        // Per-tid clamp keeps timestamps monotonic even when several
        // threads shared a ring.
        std::map<uint32_t, int64_t> last_ts;
        int64_t max_ts = 0;
        for (const auto &[ring, ev] : events) {
            int64_t &last = last_ts.try_emplace(ring, ev.ts_us).first->second;
            last = std::max(last, ev.ts_us);
            max_ts = std::max(max_ts, last);
            instant(ring + 1, last, ev.name, ev.cat)
                .kv("value", ev.value)
                .kv("seq", ev.seq)
                .endObject()
                .endObject();
        }
        instant(1, max_ts, "flight.dumped", "flight")
            .kv("reason", reason)
            .kv("events", static_cast<uint64_t>(events.size()))
            .endObject()
            .endObject();
        w.endArray().kv("displayTimeUnit", "ms").endObject();

        // --- metrics.jsonl ---------------------------------------------
        JsonWriter m;
        m.beginObject()
            .kv("ts", logTimestampUtc())
            .key("flight")
            .beginObject()
            .kv("reason", reason)
            .kv("events", static_cast<uint64_t>(events.size()))
            .kv("recorded", recorded())
            .kv("capacity", capacity_)
            .kv("workers", static_cast<uint64_t>(rings_.size()))
            .endObject()
            .endObject();
        std::string metrics = m.str() + "\n";
        if (registry_ && registry_->enabled()) {
            auto guard = registry_->updateGuard();
            metrics += registry_->frameSnapshotJson(
                           last_frame_.load(std::memory_order_relaxed)) +
                       "\n";
        }

        // --- commit through the recovery ladder -------------------------
        const std::string dir = prefix_ + ".flight";
        if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
            throw Exception(ErrorCode::Io,
                            "flight: cannot create '" + dir +
                                "': " + std::strerror(errno));
        const std::string &trace = w.str();
        atomicWriteFile(dir + "/trace.json", trace.data(), trace.size(),
                        AtomicWriteOptions{});
        atomicWriteFile(dir + "/metrics.jsonl", metrics.data(),
                        metrics.size(), AtomicWriteOptions{});
        logInfo("flight: dumped " + std::to_string(events.size()) +
                " event(s) to " + dir + " (" + reason + ")");
        return dir;
    } catch (const Exception &e) {
        logWarn("flight: dump failed (" + reason +
                "): " + e.error().describe());
    } catch (const std::exception &e) {
        logWarn(std::string("flight: dump failed (") + reason +
                "): " + e.what());
    }
    return "";
}

} // namespace mltc
