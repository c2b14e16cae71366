#include "sim/parallel_runner.hpp"

#include <cstdio>
#include <mutex>

#include "obs/stage.hpp"
#include "obs/telemetry_server.hpp"
#include "sim/resilience.hpp"
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

void
SweepExecutor::addLeg(std::string name,
                      std::function<void(LegContext &)> body)
{
    legs_.push_back({std::move(name), std::move(body)});
}

namespace {

void
runOneLeg(const std::function<void(LegContext &)> &body, LegContext &ctx,
          Annotation root, LegResult &result)
{
    result.name = ctx.name();
    if (cancellationRequested()) {
        result.outcome = LegOutcome::Cancelled;
        return;
    }
    try {
        // Every sample taken while this thread runs the leg carries a
        // "leg:<name>" root frame; hardware counters (when available)
        // bracket the whole leg body.
        Stage leg_stage(root, /*counters=*/true);
        body(ctx);
        result.outcome = LegOutcome::Completed;
    } catch (const std::exception &e) {
        result.outcome = LegOutcome::Failed;
        result.error = e.what();
    } catch (...) {
        result.outcome = LegOutcome::Failed;
        result.error = "unknown exception";
    }
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
    // The threads the legs run on: the workers and the caller.
    const unsigned threads = pool_ ? pool_->workerCount() + 1 : 1;
    w.kv("jobs", static_cast<uint64_t>(threads));
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
    std::vector<Annotation> roots; // interned in registration order
    ctxs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        ctxs.emplace_back(i, legs_[i].name);
        roots.push_back(annotate("leg:" + legs_[i].name));
    }

    // Guards status, done and next_flush. Status snapshots are taken
    // under it, so /runz never shows a torn view.
    std::mutex mutex;
    std::vector<const char *> status(n, "pending");
    std::vector<char> done(n, 0);
    size_t next_flush = 0;
    publishLegStatus(status);

    parallelFor(pool_, n, [&](size_t i) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            status[i] = "running";
            publishLegStatus(status);
        }
        runOneLeg(legs_[i].body, ctxs[i], roots[i], manifest.legs[i]);
        // Whichever thread finishes a leg streams every finished leg
        // from the first one not yet flushed: leg i prints as soon as
        // it and all earlier legs finished, however they were taken.
        std::lock_guard<std::mutex> lock(mutex);
        done[i] = 1;
        status[i] = legOutcomeName(manifest.legs[i].outcome);
        publishLegStatus(status);
        for (; next_flush < n && done[next_flush]; ++next_flush)
            flushLeg(ctxs[next_flush]);
    });
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
