#include "sim/parallel_runner.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>

#include "obs/stage.hpp"
#include "obs/telemetry_server.hpp"
#include "sim/resilience.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace mltc {

const char *
legOutcomeName(LegOutcome outcome)
{
    switch (outcome) {
    case LegOutcome::Completed:
        return "completed";
    case LegOutcome::Failed:
        return "failed";
    case LegOutcome::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

bool
SweepManifest::allCompleted() const
{
    for (const LegResult &leg : legs)
        if (leg.outcome != LegOutcome::Completed)
            return false;
    return !legs.empty();
}

void
SweepManifest::writeCsv(const std::string &path) const
{
    CsvWriter csv(path, {"leg", "name", "outcome", "error"});
    for (size_t i = 0; i < legs.size(); ++i)
        csv.rowStrings({std::to_string(i), legs[i].name,
                        legOutcomeName(legs[i].outcome), legs[i].error});
    csv.close();
}

void
LegContext::printf(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::va_list copy;
    va_copy(copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n > 0) {
        size_t old = out_.size();
        out_.resize(old + static_cast<size_t>(n) + 1);
        std::vsnprintf(out_.data() + old, static_cast<size_t>(n) + 1, fmt,
                       args);
        out_.resize(old + static_cast<size_t>(n));
    }
    va_end(args);
}

SweepExecutor::SweepExecutor(unsigned jobs)
    : jobs_(jobs == 0 ? ThreadPool::defaultJobs() : jobs)
{
}

SweepExecutor::SweepExecutor(ThreadPool *pool)
    : jobs_(pool ? pool->workerCount() : 1), pool_(pool)
{
}

void
SweepExecutor::addLeg(std::string name,
                      std::function<void(LegContext &)> body)
{
    legs_.push_back({std::move(name), std::move(body)});
}

namespace {

void
runOneLeg(const std::function<void(LegContext &)> &body, LegContext &ctx,
          LegResult &result)
{
    result.name = ctx.name();
    if (cancellationRequested()) {
        result.outcome = LegOutcome::Cancelled;
        return;
    }
    auto t0 = std::chrono::steady_clock::now();
    try {
        // Every sample taken while this worker runs the leg carries a
        // "leg:<name>" root frame; hardware counters (when available)
        // bracket the whole leg body.
        Stage leg_stage(annotate("leg:" + ctx.name()), /*counters=*/true);
        body(ctx);
        result.outcome = LegOutcome::Completed;
    } catch (const std::exception &e) {
        result.outcome = LegOutcome::Failed;
        result.error = e.what();
    } catch (...) {
        result.outcome = LegOutcome::Failed;
        result.error = "unknown exception";
    }
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
}

void
flushLeg(const LegContext &ctx)
{
    const std::string &text = ctx.buffered();
    if (!text.empty()) {
        std::fwrite(text.data(), 1, text.size(), stdout);
        std::fflush(stdout);
    }
}

} // namespace

void
SweepExecutor::publishLegStatus(
    const std::vector<const char *> &status) const
{
    if (!telemetry_)
        return;
    JsonWriter w;
    w.beginObject();
    w.kv("mode", "sweep");
    w.kv("jobs", static_cast<uint64_t>(jobs_));
    w.key("legs");
    w.beginArray();
    for (size_t i = 0; i < legs_.size(); ++i) {
        w.beginObject();
        w.kv("index", static_cast<uint64_t>(i));
        w.kv("name", legs_[i].name);
        w.kv("status", status[i]);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    telemetry_->publishRunz(w.str());
}

SweepManifest
SweepExecutor::run()
{
    const size_t n = legs_.size();
    SweepManifest manifest;
    manifest.legs.resize(n);

    std::vector<LegContext> ctxs;
    ctxs.reserve(n);
    for (size_t i = 0; i < n; ++i)
        ctxs.emplace_back(i, legs_[i].name);

    if (jobs_ <= 1 || n <= 1) {
        // Serial: bit-for-bit the pre-parallel program, including the
        // point in time at which each leg's output reaches stdout.
        std::vector<const char *> status(n, "pending");
        publishLegStatus(status);
        for (size_t i = 0; i < n; ++i) {
            status[i] = "running";
            publishLegStatus(status);
            runOneLeg(legs_[i].body, ctxs[i], manifest.legs[i]);
            status[i] = legOutcomeName(manifest.legs[i].outcome);
            publishLegStatus(status);
            flushLeg(ctxs[i]);
        }
        return manifest;
    }

    std::mutex mutex;
    std::condition_variable cv;
    std::vector<char> done(n, 0);
    std::vector<const char *> status(n, "pending");
    publishLegStatus(status);

    {
        std::unique_ptr<ThreadPool> owned;
        ThreadPool *pool = pool_;
        if (!pool) {
            owned = std::make_unique<ThreadPool>(jobs_);
            pool = owned.get();
        }
        for (size_t i = 0; i < n; ++i) {
            pool->submit([this, i, &ctxs, &manifest, &mutex, &cv, &done,
                          &status]() {
                {
                    // Status snapshots are taken under the same mutex
                    // the flags mutate under, so /runz never shows a
                    // torn view.
                    std::lock_guard<std::mutex> lock(mutex);
                    status[i] = "running";
                    publishLegStatus(status);
                }
                runOneLeg(legs_[i].body, ctxs[i], manifest.legs[i]);
                // Notify under the lock: once the waiter sees the last
                // flag, run() returns and cv dies, while a borrowed
                // pool's worker is still running this task.
                std::lock_guard<std::mutex> lock(mutex);
                done[i] = 1;
                status[i] = legOutcomeName(manifest.legs[i].outcome);
                publishLegStatus(status);
                cv.notify_all();
            });
        }
        // Stream buffers in registration order: leg i prints as soon as
        // it and all earlier legs finished, however the pool scheduled
        // them.
        for (size_t i = 0; i < n; ++i) {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&done, i]() { return done[i] != 0; });
            lock.unlock();
            flushLeg(ctxs[i]);
        }
    } // an owned pool drains + joins
    return manifest;
}

unsigned
jobsFromCli(const CommandLine &cli)
{
    unsigned long jobs = cli.getUnsigned("jobs", 0);
    if (jobs > 1024)
        throw Exception(ErrorCode::BadArgument,
                        "--jobs: implausible worker count");
    if (jobs == 0)
        return ThreadPool::defaultJobs();
    return static_cast<unsigned>(jobs);
}

} // namespace mltc
