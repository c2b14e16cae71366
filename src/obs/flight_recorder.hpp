/**
 * @file
 * Crash-scoped flight recorder: a fixed-size ring of recent trace
 * events and metric deltas per worker, always-on and bounded, dumped
 * as a schema-valid Chrome trace + metrics JSONL bundle when the run
 * dies (quarantine, watchdog kill, audit violation, fatal I/O error).
 *
 * Design constraints, in order:
 *  - recording must be cheap and lock-free: one relaxed fetch_add for
 *    the global sequence number, one for the per-worker ring cursor,
 *    and a seqlock-style slot publish. No allocation, no locks, no
 *    syscalls — safe from any thread including sweep workers;
 *  - memory is bounded at construction: workers * capacity slots of
 *    POD events (names truncate into fixed buffers); when the ring
 *    wraps, the oldest events are overwritten — a flight recorder
 *    keeps the *last* moments, not the first;
 *  - the dump itself must survive a dying process on a faulty disk: it
 *    renders from the rings into memory, then commits both files
 *    through atomicWriteFile (FileBackend + retries — the PR-7
 *    recovery ladder), and never throws: a failed dump is logged, not
 *    fatal — the recorder must not take down the error path that
 *    invoked it.
 *
 * Bundle layout (`<prefix>.flight/`):
 *   trace.json     Chrome trace: process/thread metadata + one instant
 *                  event per ring slot (args: value, seq) + a final
 *                  "flight.dumped" instant carrying the reason —
 *                  passes trace_validate;
 *   metrics.jsonl  a dump-summary row, then (when a registry is
 *                  attached) one final frame-snapshot row — accepted
 *                  by `report --metrics`.
 *
 * Installed in the hook registry (obs/stage.hpp), the recorder receives
 * every event() instant plus the frame marks and metric samples below;
 * each of those is one atomic load + branch when no recorder is
 * installed.
 */
#ifndef MLTC_OBS_FLIGHT_RECORDER_HPP
#define MLTC_OBS_FLIGHT_RECORDER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/stage.hpp"

namespace mltc {

class MetricsRegistry;

/** One recorded moment; POD so slots are copy-in/copy-out. */
struct FlightEvent
{
    enum Kind : uint8_t { Instant = 0, Metric = 1, Frame = 2 };

    uint64_t seq = 0; ///< global order; 0 = slot never written
    int64_t ts_us = 0;
    uint8_t kind = Instant;
    char name[48] = {0};
    char cat[16] = {0};
    double value = 0.0;
};

/** Bounded per-worker event rings + bundle dumper; see file comment. */
class FlightRecorder
{
  public:
    struct Config
    {
        uint32_t workers = 8;    ///< independent rings
        uint32_t capacity = 512; ///< slots per ring
        std::string prefix;      ///< bundle lands at <prefix>.flight/
        MetricsRegistry *registry = nullptr; ///< snapshot at dump time
    };

    explicit FlightRecorder(const Config &config);

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Record one event. Lock-free; callable from any thread. */
    void record(const char *name, const char *cat,
                uint8_t kind = FlightEvent::Instant, double value = 0.0);

    /** Ring contents in global (seq) order — the dump's event list. */
    std::vector<FlightEvent> snapshot() const;

    /**
     * Dump the rings as `<prefix>.flight/{trace.json,metrics.jsonl}`.
     * Returns the bundle directory, or "" on failure (logged, never
     * thrown). Idempotent: later dumps overwrite with fresher state.
     */
    std::string dump(const std::string &reason);

    uint64_t recorded() const { return seq_.load(); }

  private:
    struct Slot
    {
        /** Seqlock-style publication: 0 while the slot is being
         *  (re)written, the event's seq once complete. */
        std::atomic<uint64_t> seq{0};
        FlightEvent event;
    };

    struct Ring
    {
        std::vector<Slot> slots;
        std::atomic<uint64_t> head{0};
    };

    Ring &ringForThisThread();
    /** Every untorn slot as (ring, event), in seq order. */
    std::vector<std::pair<uint32_t, FlightEvent>> collect() const;

    uint32_t capacity_;
    std::string prefix_;
    MetricsRegistry *registry_;
    std::vector<Ring> rings_;
    std::atomic<uint64_t> seq_{0};
    ThreadSlots<FlightRecorder> thread_slots_;
    std::atomic<int64_t> last_frame_{-1};
    std::chrono::steady_clock::time_point t0_;
};

/**
 * hooks().install(@p recorder) (null removes any), under the name the
 * frozen perfbench driver calls.
 */
inline void
installFlightRecorder(FlightRecorder *recorder)
{
    hooks().install(recorder);
}

/** Record one metric delta sample; no-op when absent. */
inline void
flightMetric(const char *name, double value)
{
    if (FlightRecorder *fr = hooks().flight())
        fr->record(name, "metric", FlightEvent::Metric, value);
}

/** Mark a frame/round boundary; no-op when absent. */
inline void
flightFrame(int64_t frame)
{
    if (FlightRecorder *fr = hooks().flight())
        fr->record("frame", "frame", FlightEvent::Frame,
                   static_cast<double>(frame));
}

} // namespace mltc

#endif // MLTC_OBS_FLIGHT_RECORDER_HPP
