/**
 * @file
 * Chrome trace-event / Perfetto-loadable timeline emission.
 *
 * ChromeTraceWriter streams a JSON object trace file
 * (`{"traceEvents":[...],"displayTimeUnit":"ms"}`) whose events follow
 * the Chrome Trace Event Format:
 *
 *  - duration events (ph B/E) from timeline Stage scopes
 *    (obs/stage.hpp), strictly nested per thread id, with
 *    non-decreasing timestamps;
 *  - counter events (ph C) for per-frame tracks (miss rates, AGP
 *    bandwidth);
 *  - instant events (ph i) for notable occurrences (checkpoint
 *    committed, simulator quarantined, host fetch failed);
 *  - metadata events (ph M) naming the process and threads.
 *
 * Load the file in Perfetto (ui.perfetto.dev) or chrome://tracing; see
 * docs/observability.md for the walkthrough.
 *
 * Installed in the hook registry (obs/stage.hpp), the writer receives
 * every Stage and event() in the process. It is internally
 * synchronized, so parallel sweep legs can stream into one trace file:
 * each OS thread gets its own Chrome tid (the first thread keeps tid 1,
 * "simulation"; workers announce themselves as "worker-N") and its own
 * scope stack, preserving the per-(pid,tid) strict nesting and
 * non-decreasing timestamps the schema checker (trace_validate)
 * verifies.
 *
 * The writer also aggregates per-stage totals (count, total wall time,
 * self time excluding children) from its scopes, plus the hot stages'
 * per-thread duration sums, so drivers can print a stage self-time
 * summary without re-parsing the file.
 */
#ifndef MLTC_OBS_TRACE_EVENT_HPP
#define MLTC_OBS_TRACE_EVENT_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/stage.hpp"

namespace mltc {

/** Aggregated wall-time of one named stage across the run. */
struct StageStat
{
    std::string name;
    uint64_t count = 0;    ///< times the scope ran
    uint64_t total_us = 0; ///< inclusive wall time
    uint64_t self_us = 0;  ///< total minus enclosed child scopes
};

/**
 * Streams one Chrome trace file. Thread-safe: concurrent begin/end/
 * counter/instant calls from sweep workers serialize on an internal
 * mutex and land on per-thread tids with per-thread scope stacks.
 */
class ChromeTraceWriter
{
  public:
    /**
     * Open (truncate) @p path and write the prologue + process
     * metadata.
     * @throws mltc::Exception (Io) when the file cannot be opened.
     */
    explicit ChromeTraceWriter(const std::string &path);

    /** Closes the file (best-effort) if close() was not called. */
    ~ChromeTraceWriter();

    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;

    /** Open a duration scope (ph B). Pair with end(). */
    void begin(const std::string &name, const char *cat);

    /** Close the innermost duration scope (ph E). */
    void end();

    /**
     * Emit an instant event (ph i, thread scope), carrying string
     * @p args when there are any (SLO alerts attach rule/entity context
     * the schema validator checks).
     */
    void
    instant(const std::string &name, const char *cat,
            const std::vector<std::pair<std::string, std::string>> &args = {});

    /** Emit one counter sample (ph C): a named track of series. */
    void counter(const std::string &name,
                 const std::vector<std::pair<std::string, double>> &series);

    /**
     * Add one hot-stage entry of @p ns to the calling thread's own
     * accumulator (called by Stage). Lock-free, and no read-modify-write
     * on a cache line another thread writes.
     */
    void addHot(HotStage stage, uint64_t ns);

    /** True once an I/O failure disabled the sink (events dropped). */
    bool disabled() const;

    /** Open duration scopes across all threads (0 when balanced). */
    size_t openScopes() const;

    /**
     * Push buffered events to the OS (fflush). The file stays open and
     * incomplete (no epilogue) but every event emitted so far survives
     * an abrupt process death; Perfetto loads such truncated traces.
     * Called on cancellation and quarantine paths so an interrupted run
     * keeps its last complete frame of events.
     */
    void flush();

    /**
     * Stage aggregates, most total time first. Hot stages report their
     * entry count and summed duration as both total and self time.
     */
    std::vector<StageStat> stageStats() const;

    const std::string &path() const { return path_; }

    /**
     * Close any scopes left open, write the epilogue and close the
     * file.
     * @throws mltc::Exception (Io) if any write failed — a truncated
     *         trace must not pass silently as a complete one.
     */
    void close();

  private:
    struct Scope
    {
        std::string name;
        uint64_t start_us = 0;
        uint64_t child_us = 0;
    };

    /** Per-OS-thread emission state: Chrome tid + open-scope stack. */
    struct ThreadState
    {
        uint32_t tid = 1;
        std::vector<Scope> stack;
    };

    // All private helpers assume mutex_ is held by the caller.
    ThreadState &threadState();
    void putLocked(const char *data, size_t size);
    void putLocked(const std::string &s) { putLocked(s.data(), s.size()); }
    void emitPrefix(char ph, uint64_t ts, uint32_t tid);
    void emitCommon(const std::string &name, const char *cat);
    void finishEvent();
    uint64_t nowUsLocked();
    void endLocked(ThreadState &state);

    std::string path_;
    std::FILE *file_ = nullptr;
    std::chrono::steady_clock::time_point t0_;
    uint64_t last_ts_ = 0;
    bool first_ = true;
    bool failed_ = false;
    uint32_t next_tid_ = 1;
    std::map<std::thread::id, ThreadState> threads_;
    std::map<std::string, StageStat> stages_;
    mutable std::mutex mutex_;

    /** One thread's hot-stage sums, alone on its cache line. */
    struct alignas(64) HotSums
    {
        std::atomic<uint64_t> ns[kHotStages] = {};
        std::atomic<uint64_t> count[kHotStages] = {};
    };
    static constexpr uint32_t kHotThreads = 64;
    /** One per thread; threads past kHotThreads share the last. */
    HotSums hot_[kHotThreads + 1];
    ThreadSlots<ChromeTraceWriter> hot_slots_;
};

} // namespace mltc

#endif // MLTC_OBS_TRACE_EVENT_HPP
