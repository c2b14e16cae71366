#include "obs/trace_event.hpp"

#include <algorithm>
#include <cinttypes>

#include "util/error.hpp"
#include "util/io.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace mltc {

ChromeTraceWriter::ChromeTraceWriter(const std::string &path)
    : path_(path), t0_(std::chrono::steady_clock::now())
{
    file_ = FileBackend::instance().open(path, "wb");
    if (!file_)
        throw Exception(ErrorCode::Io,
                        "ChromeTraceWriter: cannot open '" + path + "'");
    putLocked("{\"traceEvents\":[");
    // Process/thread metadata so Perfetto shows meaningful track names.
    putLocked("\n{\"ph\":\"M\",\"pid\":1,\"tid\":1,"
              "\"name\":\"process_name\","
              "\"args\":{\"name\":\"mltc\"}},"
              "\n{\"ph\":\"M\",\"pid\":1,\"tid\":1,"
              "\"name\":\"thread_name\","
              "\"args\":{\"name\":\"simulation\"}}");
    first_ = false; // metadata already needs comma separation
}

ChromeTraceWriter::~ChromeTraceWriter()
{
    if (file_) {
        try {
            close();
        } catch (...) {
            // Destructor must not throw; close() explicitly to observe
            // write failures.
        }
    }
}

void
ChromeTraceWriter::putLocked(const char *data, size_t size)
{
    if (!file_)
        return;
    FileBackend &fs = FileBackend::instance();
    if (!fs.write(file_, data, size)) {
        // Telemetry must not take the run down: on the first I/O
        // failure the sink disables itself (the emitters all no-op on a
        // null file) and the loss surfaces as a typed throw at close().
        failed_ = true;
        fs.close(file_);
        file_ = nullptr;
        logWarn("ChromeTraceWriter: write failed on '" + path_ +
                "'; trace sink disabled");
    }
}

void
ChromeTraceWriter::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ && !FileBackend::instance().flush(file_))
        failed_ = true;
}

uint64_t
ChromeTraceWriter::nowUsLocked()
{
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0_)
                        .count();
    // Clamp for monotonicity: the schema requires non-decreasing ts.
    last_ts_ = std::max(last_ts_, static_cast<uint64_t>(us));
    return last_ts_;
}

bool
ChromeTraceWriter::disabled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

size_t
ChromeTraceWriter::openScopes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t open = 0;
    for (const auto &[id, state] : threads_)
        open += state.stack.size();
    return open;
}

ChromeTraceWriter::ThreadState &
ChromeTraceWriter::threadState()
{
    auto [it, inserted] = threads_.try_emplace(std::this_thread::get_id());
    ThreadState &state = it->second;
    if (inserted) {
        state.tid = next_tid_++;
        // tid 1 ("simulation") is already announced in the prologue, so
        // a single-threaded run emits byte-for-byte the old preamble;
        // later threads introduce themselves as workers.
        if (state.tid != 1 && file_) {
            char buf[128];
            const int n = std::snprintf(
                buf, sizeof(buf),
                "%s\n{\"ph\":\"M\",\"pid\":1,\"tid\":%" PRIu32
                ",\"name\":\"thread_name\","
                "\"args\":{\"name\":\"worker-%" PRIu32 "\"}}",
                first_ ? "" : ",", state.tid, state.tid);
            putLocked(buf, static_cast<size_t>(n));
            first_ = false;
        }
    }
    return state;
}

void
ChromeTraceWriter::emitPrefix(char ph, uint64_t ts, uint32_t tid)
{
    if (!file_)
        return;
    char buf[96];
    const int n = std::snprintf(buf, sizeof(buf),
                                "%s\n{\"ph\":\"%c\",\"pid\":1,\"tid\":%" PRIu32
                                ",\"ts\":%" PRIu64,
                                first_ ? "" : ",", ph, tid, ts);
    putLocked(buf, static_cast<size_t>(n));
    first_ = false;
}

void
ChromeTraceWriter::emitCommon(const std::string &name, const char *cat)
{
    if (!file_)
        return;
    putLocked(",\"name\":\"" + jsonEscape(name) + "\",\"cat\":\"" + cat +
              "\"");
}

void
ChromeTraceWriter::finishEvent()
{
    putLocked("}", 1);
}

void
ChromeTraceWriter::begin(const std::string &name, const char *cat)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ThreadState &state = threadState();
    const uint64_t ts = nowUsLocked();
    emitPrefix('B', ts, state.tid);
    emitCommon(name, cat);
    finishEvent();
    state.stack.push_back({name, ts, 0});
}

void
ChromeTraceWriter::endLocked(ThreadState &state)
{
    const uint64_t ts = nowUsLocked();
    Scope scope = std::move(state.stack.back());
    state.stack.pop_back();
    emitPrefix('E', ts, state.tid);
    finishEvent();

    const uint64_t inclusive = ts - scope.start_us;
    StageStat &stat = stages_[scope.name];
    stat.name = scope.name;
    ++stat.count;
    stat.total_us += inclusive;
    stat.self_us += inclusive - std::min(scope.child_us, inclusive);
    if (!state.stack.empty())
        state.stack.back().child_us += inclusive;
}

void
ChromeTraceWriter::end()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ThreadState &state = threadState();
    if (state.stack.empty())
        throw Exception(ErrorCode::BadArgument,
                        "ChromeTraceWriter: end() without a matching begin()");
    endLocked(state);
}

void
ChromeTraceWriter::instant(
    const std::string &name, const char *cat,
    const std::vector<std::pair<std::string, std::string>> &args)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ThreadState &state = threadState();
    emitPrefix('i', nowUsLocked(), state.tid);
    emitCommon(name, cat);
    if (file_)
        putLocked(",\"s\":\"t\"");
    if (file_ && !args.empty()) {
        JsonWriter a;
        a.beginObject();
        for (const auto &[k, v] : args)
            a.kv(k, v);
        a.endObject();
        putLocked(",\"args\":" + a.str());
    }
    finishEvent();
}

void
ChromeTraceWriter::counter(
    const std::string &name,
    const std::vector<std::pair<std::string, double>> &series)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ThreadState &state = threadState();
    emitPrefix('C', nowUsLocked(), state.tid);
    emitCommon(name, "metric");
    if (file_) {
        JsonWriter args;
        args.beginObject();
        for (const auto &[k, v] : series)
            args.kv(k, v);
        args.endObject();
        putLocked(",\"args\":" + args.str());
    }
    finishEvent();
}

void
ChromeTraceWriter::addHot(HotStage stage, uint64_t ns)
{
    const size_t h = static_cast<size_t>(stage);
    const uint32_t idx = hot_slots_.mine();
    if (idx >= kHotThreads) {
        HotSums &shared = hot_[kHotThreads];
        shared.ns[h].fetch_add(ns, std::memory_order_relaxed);
        shared.count[h].fetch_add(1, std::memory_order_relaxed);
        return;
    }
    // Only this thread writes its line: a plain load and store.
    HotSums &own = hot_[idx];
    own.ns[h].store(own.ns[h].load(std::memory_order_relaxed) + ns,
                    std::memory_order_relaxed);
    own.count[h].store(own.count[h].load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
}

std::vector<StageStat>
ChromeTraceWriter::stageStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<StageStat> out;
    out.reserve(stages_.size());
    for (const auto &[name, stat] : stages_)
        out.push_back(stat);
    for (size_t h = 0; h < kHotStages; ++h) {
        StageStat hot;
        hot.name = hotStageName(static_cast<HotStage>(h));
        uint64_t ns = 0;
        for (const HotSums &sums : hot_) {
            ns += sums.ns[h].load(std::memory_order_relaxed);
            hot.count += sums.count[h].load(std::memory_order_relaxed);
        }
        hot.total_us = hot.self_us = ns / 1000;
        if (hot.count > 0)
            out.push_back(std::move(hot));
    }
    std::sort(out.begin(), out.end(),
              [](const StageStat &a, const StageStat &b) {
                  return a.total_us > b.total_us;
              });
    return out;
}

void
ChromeTraceWriter::close()
{
    bool rc = true;
    bool failed = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        failed = failed_;
        if (!file_) {
            if (!failed)
                return; // already cleanly closed
        } else {
            // A truncated run still yields matched B/E pairs per tid.
            for (auto &[id, state] : threads_)
                while (!state.stack.empty())
                    endLocked(state);
            putLocked("\n],\"displayTimeUnit\":\"ms\"}\n");
            if (file_) {
                rc = FileBackend::instance().close(file_);
                file_ = nullptr;
            }
            failed = failed_;
        }
    }
    hooks().uninstall(this);
    if (!rc || failed)
        throw Exception(ErrorCode::Io,
                        "ChromeTraceWriter: write failure on '" + path_ + "'");
}

} // namespace mltc
