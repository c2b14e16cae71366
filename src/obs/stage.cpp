#include "obs/stage.hpp"

#include <chrono>

#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"

namespace mltc {

namespace {

uint64_t
nowNs()
{
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

} // namespace

uint64_t
detail::nextSlotGeneration()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

Annotation
annotate(const std::string &name)
{
    StageProfiler *p = hooks().profiler();
    return Annotation{p ? p->intern(name) : nullptr};
}

void
Stage::enter(const char *name, const char *cat, int hot, bool counters)
{
    entered_ = true;
    hot_ = hot;
    name_ = name;
    // Annotations (no category, not hot) leave the tracer alone.
    tracer_ = cat != nullptr || hot >= 0 ? hooks().tracer() : nullptr;
    if (tracer_ != nullptr) {
        if (hot >= 0)
            start_ns_ = nowNs();
        else
            tracer_->begin(name, cat);
    }
    profiler_ = hooks().profiler();
    slot_ = profiler_ != nullptr ? profiler_->enter(name) : nullptr;
    counting_ = counters && profiler_ != nullptr &&
                profiler_->readCounters(start_counters_);
}

void
Stage::leave()
{
    uint64_t end[4];
    if (counting_ && profiler_->readCounters(end))
        profiler_->accumulateCounters(name_, start_counters_, end);
    if (slot_ != nullptr)
        StageProfiler::leave(slot_);
    if (tracer_ == nullptr)
        return;
    if (hot_ >= 0)
        tracer_->addHot(static_cast<HotStage>(hot_), nowNs() - start_ns_);
    else
        tracer_->end();
}

void
event(const char *name, const char *cat, double value,
      const std::vector<std::pair<std::string, std::string>> &args)
{
    if (ChromeTraceWriter *t = hooks().tracer())
        t->instant(name, cat, args);
    if (FlightRecorder *f = hooks().flight())
        f->record(name, cat, FlightEvent::Instant, value);
}

std::string
flightDump(const std::string &reason)
{
    if (ChromeTraceWriter *t = hooks().tracer())
        t->flush();
    if (StageProfiler *p = hooks().profiler())
        p->flushOutputs();
    FlightRecorder *f = hooks().flight();
    return f ? f->dump(reason) : "";
}

} // namespace mltc
