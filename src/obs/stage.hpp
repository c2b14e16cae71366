/**
 * @file
 * The one instrumentation primitive: a Stage scope and an event() call
 * over hooks(), the one registry of installed backends (the tracer,
 * trace_event.hpp; the stage profiler, profiler.hpp; the flight
 * recorder, flight_recorder.hpp). Instrumented code names no backend.
 *
 *  - A Stage times a region. While neither a tracer nor a profiler is
 *    installed it costs one acquire load and a branch (a flight
 *    recorder alone keeps it there). Otherwise it is a profiler frame,
 *    with a hardware-counter bracket when the site asks, and reaches
 *    the tracer by kind: a timeline stage writes one B/E pair; a hot
 *    stage adds its duration to the calling thread's own accumulator,
 *    folded into ChromeTraceWriter::stageStats() (no event, no lock, no
 *    read-modify-write on a shared cache line); an annotation (sweep
 *    leg, tenant stream, pipe drain) writes nothing.
 *  - event() sends one instant to the tracer and the flight recorder.
 */
#ifndef MLTC_OBS_STAGE_HPP
#define MLTC_OBS_STAGE_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mltc {

class ChromeTraceWriter;
class FlightRecorder;
class StageProfiler;

namespace detail {
struct ProfileSlot;
/** A process-unique, never reused ThreadSlots generation. */
uint64_t nextSlotGeneration();
} // namespace detail

/**
 * Hands each calling thread an index (0, 1, ... in first-call order)
 * into one owner's per-thread arrays. The thread caches it keyed by the
 * owner's generation, never its address, so an owner built where a
 * freed one lived starts afresh; one cache per @p Owner type.
 */
template <class Owner>
class ThreadSlots
{
  public:
    ThreadSlots() : generation_(detail::nextSlotGeneration()) {}

    uint32_t
    mine()
    {
        thread_local std::pair<uint64_t, uint32_t> t_claim{0, 0};
        if (t_claim.first != generation_)
            t_claim = {generation_,
                       next_.fetch_add(1, std::memory_order_acq_rel)};
        return t_claim.second;
    }

    /** Indices handed out so far. */
    uint32_t
    claimed() const
    {
        return next_.load(std::memory_order_acquire);
    }

  private:
    const uint64_t generation_;
    std::atomic<uint32_t> next_{0};
};

/** The stages entered too often for a timeline event each. */
enum class HotStage : uint8_t { CacheSimAccess, SamplerSample };
constexpr size_t kHotStages = 2;

constexpr const char *
hotStageName(HotStage stage)
{
    return stage == HotStage::CacheSimAccess ? "cachesim.access"
                                             : "sampler.sample";
}

/**
 * The installed backends. install() replaces the one of its kind (null
 * removes it); uninstall() removes @p backend only while it is the
 * installed one, so a teardown cannot clear a successor.
 */
class Hooks
{
  public:
    ChromeTraceWriter *tracer() const { return tracer_.load(kAcq); }
    StageProfiler *profiler() const { return profiler_.load(kAcq); }
    FlightRecorder *flight() const { return flight_.load(kAcq); }

    /** A tracer or a profiler is installed: Stage's one check. */
    bool timed() const { return timed_.load(kAcq); }

    void install(ChromeTraceWriter *t) { set(tracer_, t, true); }
    void install(StageProfiler *p) { set(profiler_, p, true); }
    void install(FlightRecorder *f) { set(flight_, f, true); }
    void uninstall(ChromeTraceWriter *t) { set(tracer_, t, false); }
    void uninstall(StageProfiler *p) { set(profiler_, p, false); }
    void uninstall(FlightRecorder *f) { set(flight_, f, false); }

  private:
    static constexpr std::memory_order kAcq = std::memory_order_acquire;

    template <class T>
    void
    set(std::atomic<T *> &slot, T *backend, bool install)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!install && (backend == nullptr || slot.load() != backend))
            return;
        slot.store(install ? backend : nullptr, std::memory_order_release);
        timed_.store(tracer_.load() != nullptr || profiler_.load() != nullptr,
                     std::memory_order_release);
    }

    std::mutex mutex_;
    std::atomic<ChromeTraceWriter *> tracer_{nullptr};
    std::atomic<StageProfiler *> profiler_{nullptr};
    std::atomic<FlightRecorder *> flight_{nullptr};
    std::atomic<bool> timed_{false};
};

namespace detail {
inline Hooks g_hooks;
} // namespace detail

/** The process registry. */
inline Hooks &
hooks()
{
    return detail::g_hooks;
}

/** A profiler-only frame name ("leg:NAME"); null without a profiler. */
struct Annotation
{
    const char *name = nullptr;
};

/** Intern @p name against the installed profiler (valid for its life). */
Annotation annotate(const std::string &name);

/** RAII stage scope; see the file comment. */
class Stage
{
  public:
    /** A timeline stage in trace category @p cat. */
    Stage(const char *name, const char *cat, bool counters = false)
    {
        if (hooks().timed()) [[unlikely]]
            enter(name, cat, -1, counters);
    }

    explicit Stage(HotStage stage)
    {
        if (hooks().timed()) [[unlikely]]
            enter(hotStageName(stage), nullptr, static_cast<int>(stage),
                  false);
    }

    explicit Stage(Annotation a, bool counters = false)
    {
        if (hooks().timed() && a.name != nullptr) [[unlikely]]
            enter(a.name, nullptr, -1, counters);
    }

    ~Stage()
    {
        if (entered_) [[unlikely]]
            leave();
    }

    Stage(const Stage &) = delete;
    Stage &operator=(const Stage &) = delete;

  private:
    void enter(const char *name, const char *cat, int hot, bool counters);
    void leave();

    bool entered_ = false;
    // Left uninitialized so an unobserved Stage stores one byte; enter()
    // writes each field leave() reads under the same condition.
    bool counting_;
    int hot_;
    const char *name_;
    ChromeTraceWriter *tracer_;
    StageProfiler *profiler_;
    detail::ProfileSlot *slot_;
    uint64_t start_ns_;
    uint64_t start_counters_[4];
};

/**
 * One instant to the tracer (with string @p args) and the flight
 * recorder (with @p value); an absent backend is skipped.
 */
void event(const char *name, const char *cat, double value = 0.0,
           const std::vector<std::pair<std::string, std::string>> &args = {});

/**
 * The crash-scope flush on a dump trigger (quarantine, watchdog, audit,
 * fatal I/O): flush the trace and the profile so far, then dump the
 * flight recorder. Returns its bundle directory, or "" when there is no
 * recorder or the dump failed.
 */
std::string flightDump(const std::string &reason);

} // namespace mltc

#endif // MLTC_OBS_STAGE_HPP
