#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/build_info.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/log.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace mltc {

namespace {

constexpr uint32_t kRingCapacity = 512; ///< samples buffered per thread

} // namespace

// ---------------------------------------------------------------------------
// Folded-format helpers

std::string
foldedEscape(const std::string &frame)
{
    std::string out;
    out.reserve(frame.size());
    for (char c : frame) {
        if (c == ';' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string
foldedKey(const std::vector<std::string> &frames)
{
    std::string key;
    for (size_t i = 0; i < frames.size(); ++i) {
        if (i != 0)
            key.push_back(';');
        key += foldedEscape(frames[i]);
    }
    return key;
}

std::vector<std::string>
foldedSplit(const std::string &key)
{
    std::vector<std::string> frames;
    std::string cur;
    for (size_t i = 0; i < key.size(); ++i) {
        const char c = key[i];
        if (c == '\\' && i + 1 < key.size()) {
            cur.push_back(key[++i]);
        } else if (c == ';') {
            frames.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty() || !frames.empty())
        frames.push_back(cur);
    return frames;
}

std::string
renderFolded(const std::map<std::string, uint64_t> &stacks)
{
    std::string out;
    for (const auto &[key, count] : stacks) {
        if (count == 0 || key.empty())
            continue; // zero-sample stacks are omitted by contract
        out += key;
        out.push_back(' ');
        out += std::to_string(count);
        out.push_back('\n');
    }
    return out;
}

namespace {

/** Aggregate a stack map into sorted per-stage self/total counts. */
void
aggregateStages(FoldedProfile &profile)
{
    std::map<std::string, ProfileStageCount> stages;
    profile.total_samples = 0;
    for (const auto &[key, count] : profile.stacks) {
        if (count == 0)
            continue;
        profile.total_samples += count;
        const std::vector<std::string> frames = foldedSplit(key);
        if (frames.empty())
            continue;
        // total counts each stage once per stack, however often a
        // recursive frame repeats within it.
        std::vector<std::string> uniq = frames;
        std::sort(uniq.begin(), uniq.end());
        uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
        for (const std::string &f : uniq) {
            ProfileStageCount &s = stages[f];
            s.name = f;
            s.total += count;
        }
        stages[frames.back()].self += count;
    }
    profile.stages.clear();
    profile.stages.reserve(stages.size());
    for (auto &[name, stat] : stages)
        profile.stages.push_back(std::move(stat));
}

} // namespace

FoldedProfile
loadFolded(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        throw Exception(ErrorCode::Io,
                        "profile: cannot open '" + path + "'");
    FoldedProfile profile;
    char line[4096];
    size_t lineno = 0;
    while (std::fgets(line, sizeof(line), f)) {
        ++lineno;
        std::string s(line);
        while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
            s.pop_back();
        if (s.empty())
            continue;
        // Frame names may contain spaces ("leg:2 MB L2"): the count is
        // everything after the LAST space, as flamegraph.pl parses it.
        const size_t sp = s.rfind(' ');
        bool ok = sp != std::string::npos && sp + 1 < s.size() && sp > 0;
        uint64_t count = 0;
        if (ok) {
            for (size_t i = sp + 1; i < s.size(); ++i) {
                if (s[i] < '0' || s[i] > '9') {
                    ok = false;
                    break;
                }
                count = count * 10 + static_cast<uint64_t>(s[i] - '0');
            }
        }
        if (!ok)
            throw Exception(ErrorCode::Corrupt,
                            "profile: " + path + ":" +
                                std::to_string(lineno) +
                                ": not a 'stack count' folded line");
        profile.stacks[s.substr(0, sp)] += count;
    }
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        throw Exception(ErrorCode::Io, "profile: read failed: " + path);
    aggregateStages(profile);
    return profile;
}

ProfileDiff
diffFoldedProfiles(const FoldedProfile &a, const FoldedProfile &b,
                   double min_share)
{
    std::map<std::string, std::pair<double, double>> shares;
    const double ta =
        a.total_samples ? static_cast<double>(a.total_samples) : 1.0;
    const double tb =
        b.total_samples ? static_cast<double>(b.total_samples) : 1.0;
    for (const ProfileStageCount &s : a.stages)
        shares[s.name].first = static_cast<double>(s.self) / ta;
    for (const ProfileStageCount &s : b.stages)
        shares[s.name].second = static_cast<double>(s.self) / tb;

    ProfileDiff diff;
    for (const auto &[name, sh] : shares) {
        ProfileDiffRow row;
        row.name = name;
        row.share_a = sh.first;
        row.share_b = sh.second;
        const double hi = std::max(sh.first, sh.second);
        if (hi > 0.0 && hi >= min_share)
            row.rel_delta = (hi - std::min(sh.first, sh.second)) / hi;
        diff.max_rel = std::max(diff.max_rel, row.rel_delta);
        diff.rows.push_back(std::move(row));
    }
    std::sort(diff.rows.begin(), diff.rows.end(),
              [](const ProfileDiffRow &x, const ProfileDiffRow &y) {
                  if (x.rel_delta != y.rel_delta)
                      return x.rel_delta > y.rel_delta;
                  return x.name < y.name;
              });
    return diff;
}

// ---------------------------------------------------------------------------
// StageProfiler

StageProfiler::StageProfiler(const ProfilerConfig &config)
    : cfg_(config)
{
    if (cfg_.hz == 0 || cfg_.hz > 100000)
        throw Exception(ErrorCode::BadArgument,
                        "profiler: sampling rate must be in [1, 100000] Hz");
    t0_ = std::chrono::steady_clock::now();
    if (cfg_.registry != nullptr) {
        auto guard = cfg_.registry->updateGuard();
        samples_metric_ = cfg_.registry->counter("profile.samples");
        dropped_metric_ = cfg_.registry->counter("profile.samples_dropped");
        unavailable_metric_ =
            cfg_.registry->gauge("profile.counters_unavailable");
        unavailable_metric_.set(0.0);
    }
    if (cfg_.force_counters_unavailable)
        markCountersUnavailable();
    sampler_ = std::thread([this] { samplerLoop(); });
}

StageProfiler::~StageProfiler()
{
    stopSampler();
#if defined(__linux__)
    for (HwGroup &g : groups_)
        for (int fd : g.fds)
            if (fd >= 0)
                ::close(fd);
#endif
}

void
StageProfiler::stopSampler()
{
    {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        stop_.store(true, std::memory_order_relaxed);
    }
    wake_cv_.notify_all();
    if (sampler_.joinable())
        sampler_.join();
}

detail::ProfileSlot *
StageProfiler::enter(const char *name)
{
    if (name == nullptr)
        return nullptr;
    const uint32_t idx = thread_slots_.mine();
    if (idx >= detail::kProfileMaxThreads) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    detail::ProfileSlot &slot = slots_[idx];
    const uint32_t d = slot.depth.load(std::memory_order_relaxed);
    if (d >= detail::kProfileMaxDepth) {
        // Deeper than the fixed stack: keep counting depth so the
        // matching leave() rebalances, but drop the frame name.
        slot.depth.store(d + 1, std::memory_order_release);
        return &slot;
    }
    slot.frames[d].store(name, std::memory_order_relaxed);
    slot.depth.store(d + 1, std::memory_order_release);
    return &slot;
}

const char *
StageProfiler::intern(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = interned_.find(name);
    if (it != interned_.end())
        return it->second;
    intern_storage_.push_back(name);
    const char *stable = intern_storage_.back().c_str();
    interned_.emplace(name, stable);
    intern_order_.push_back(stable);
    return stable;
}

// ---------------------------------------------------------------------------
// Sampler thread

void
StageProfiler::samplerLoop()
{
    const auto period = std::chrono::nanoseconds(
        1000000000ull / static_cast<uint64_t>(cfg_.hz));
    auto next = std::chrono::steady_clock::now() + period;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(wake_mutex_);
            wake_cv_.wait_until(lock, next, [this] {
                return stop_.load(std::memory_order_relaxed);
            });
        }
        if (stop_.load(std::memory_order_relaxed))
            return;
        next += period;
        const auto now = std::chrono::steady_clock::now();
        if (next < now) // fell behind (debugger, VM pause): resync
            next = now + period;
        std::lock_guard<std::mutex> lock(mutex_);
        tickLocked();
    }
}

void
StageProfiler::tickLocked()
{
    const uint32_t claimed =
        std::min(thread_slots_.claimed(), detail::kProfileMaxThreads);
    for (uint32_t i = 0; i < claimed; ++i) {
        detail::ProfileSlot &slot = slots_[i];
        const uint32_t d = slot.depth.load(std::memory_order_acquire);
        if (d == 0)
            continue; // idle thread: contributes nothing
        Sample sample;
        sample.depth = std::min(d, detail::kProfileMaxDepth);
        for (uint32_t j = 0; j < sample.depth; ++j)
            sample.frames[j] =
                slot.frames[j].load(std::memory_order_relaxed);
        std::vector<Sample> &ring = rings_[i];
        if (ring.capacity() == 0)
            ring.reserve(kRingCapacity);
        ring.push_back(sample);
        if (ring.size() >= kRingCapacity)
            foldRingLocked(i); // amortized: fold on wrap, not per tick
    }
    publishRegistryLocked();
}

void
StageProfiler::foldRingLocked(uint32_t slot)
{
    std::vector<Sample> &ring = rings_[slot];
    std::string key;
    for (const Sample &sample : ring) {
        key.clear();
        bool first = true;
        for (uint32_t j = 0; j < sample.depth; ++j) {
            const char *frame = sample.frames[j];
            if (frame == nullptr)
                continue; // torn snapshot before the first push there
            if (!first)
                key.push_back(';');
            first = false;
            key += foldedEscape(frame);
        }
        if (key.empty())
            continue;
        ++folded_[key];
        ++folded_samples_;
    }
    ring.clear();
}

void
StageProfiler::foldAllLocked()
{
    for (uint32_t i = 0; i < detail::kProfileMaxThreads; ++i)
        if (!rings_[i].empty())
            foldRingLocked(i);
}

void
StageProfiler::publishRegistryLocked()
{
    if (cfg_.registry == nullptr)
        return;
    auto guard = cfg_.registry->updateGuard();
    samples_metric_.set(sampleCountLocked());
    dropped_metric_.set(dropped_.load(std::memory_order_relaxed));
}

uint64_t
StageProfiler::sampleCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sampleCountLocked();
}

uint64_t
StageProfiler::sampleCountLocked() const
{
    uint64_t count = folded_samples_;
    for (const std::vector<Sample> &ring : rings_)
        count += ring.size();
    return count;
}

// ---------------------------------------------------------------------------
// Hardware counters

void
StageProfiler::markCountersUnavailable()
{
    if (counters_unavailable_.exchange(true, std::memory_order_relaxed))
        return;
    if (cfg_.registry != nullptr) {
        auto guard = cfg_.registry->updateGuard();
        unavailable_metric_.set(1.0);
    }
    logWarn("profiler: perf_event_open unavailable; continuing without "
            "hardware counters");
}

bool
StageProfiler::openGroup(HwGroup &g)
{
#if defined(__linux__)
    struct CounterSpec
    {
        uint32_t type;
        uint64_t config;
    };
    static const CounterSpec specs[4] = {
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
        {PERF_TYPE_HW_CACHE,
         PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
             (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    };
    for (int i = 0; i < 4; ++i) {
        struct perf_event_attr attr;
        std::memset(&attr, 0, sizeof(attr));
        attr.size = sizeof(attr);
        attr.type = specs[i].type;
        attr.config = specs[i].config;
        attr.read_format = PERF_FORMAT_GROUP;
        attr.exclude_kernel = 1;
        attr.exclude_hv = 1;
        attr.disabled = i == 0 ? 1 : 0;
        const int group_fd = i == 0 ? -1 : g.fds[0];
        const long fd = ::syscall(__NR_perf_event_open, &attr, 0, -1,
                                  group_fd, 0);
        if (fd < 0) {
            for (int j = 0; j < i; ++j) {
                ::close(g.fds[j]);
                g.fds[j] = -1;
            }
            return false; // EPERM/EACCES/ENOSYS/EINVAL all degrade
        }
        g.fds[i] = static_cast<int>(fd);
    }
    if (::ioctl(g.fds[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP) != 0 ||
        ::ioctl(g.fds[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
        for (int &fd : g.fds) {
            if (fd >= 0)
                ::close(fd);
            fd = -1;
        }
        return false;
    }
    return true;
#else
    (void)g;
    return false;
#endif
}

bool
StageProfiler::readCounters(uint64_t out[4])
{
    if (!cfg_.counters ||
        counters_unavailable_.load(std::memory_order_relaxed))
        return false;
    const uint32_t idx = thread_slots_.mine();
    if (idx >= detail::kProfileMaxThreads)
        return false;
    HwGroup &g = groups_[idx];
    if (g.failed)
        return false;
    if (!g.open) {
        // perf_event_open binds to the calling thread (pid=0, cpu=-1),
        // so the group must be opened lazily by its owner.
        if (!openGroup(g)) {
            g.failed = true;
            markCountersUnavailable();
            return false;
        }
        g.open = true;
    }
#if defined(__linux__)
    struct
    {
        uint64_t nr;
        uint64_t values[4];
    } buf;
    const ssize_t n = ::read(g.fds[0], &buf, sizeof(buf));
    if (n < static_cast<ssize_t>(sizeof(uint64_t)) || buf.nr < 4) {
        g.failed = true;
        markCountersUnavailable();
        return false;
    }
    for (int i = 0; i < 4; ++i)
        out[i] = buf.values[i];
    return true;
#else
    (void)out;
    return false;
#endif
}

void
StageProfiler::accumulateCounters(const char *stage, const uint64_t start[4],
                                  const uint64_t end[4])
{
    const auto delta = [&](int i) {
        return end[i] >= start[i] ? end[i] - start[i] : 0;
    };
    std::lock_guard<std::mutex> lock(mutex_);
    HwStageCounters &c = counter_stats_[stage];
    ++c.enters;
    c.cycles += delta(0);
    c.instructions += delta(1);
    c.llc_misses += delta(2);
    c.branch_misses += delta(3);
}

// ---------------------------------------------------------------------------
// Output

std::string
StageProfiler::renderJsonLocked()
{
    FoldedProfile profile;
    profile.stacks = folded_;
    aggregateStages(profile);

    const double elapsed_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0_)
            .count();

    JsonWriter w;
    w.beginObject();
    w.key("build");
    appendBuildInfo(w);
    w.key("profile")
        .beginObject()
        .kv("hz", static_cast<uint64_t>(cfg_.hz))
        .kv("samples", profile.total_samples)
        .kv("dropped", dropped_.load(std::memory_order_relaxed))
        .kv("threads",
            static_cast<uint64_t>(std::min(thread_slots_.claimed(),
                                           detail::kProfileMaxThreads)))
        .kv("duration_us", elapsed_us)
        .endObject();

    w.key("stages").beginArray();
    for (const ProfileStageCount &s : profile.stages)
        w.beginObject()
            .kv("stage", s.name)
            .kv("self", s.self)
            .kv("total", s.total)
            .endObject();
    w.endArray();

    // Legs and streams in annotation registration order: SweepExecutor
    // interns its legs in addLeg() order and MultiStreamRunner its
    // tenants in stream order before any runs, so a profile merged
    // from any --jobs N schedule lists them identically.
    const auto annotations = [&](const char *prefix) {
        for (const char *name : intern_order_) {
            if (std::strncmp(name, prefix, std::strlen(prefix)) != 0)
                continue;
            uint64_t total = 0;
            for (const ProfileStageCount &s : profile.stages)
                if (s.name == name)
                    total = s.total;
            w.beginObject()
                .kv("name", std::string(name))
                .kv("samples", total)
                .endObject();
        }
    };
    w.key("legs").beginArray();
    annotations("leg:");
    w.endArray();
    w.key("streams").beginArray();
    annotations("stream:");
    w.endArray();

    w.key("counters")
        .beginObject()
        .kv("available", !counters_unavailable_.load(
                             std::memory_order_relaxed) &&
                             cfg_.counters)
        .key("stages")
        .beginArray();
    for (const auto &[stage, c] : counter_stats_)
        w.beginObject()
            .kv("stage", stage)
            .kv("enters", c.enters)
            .kv("cycles", c.cycles)
            .kv("instructions", c.instructions)
            .kv("llc_misses", c.llc_misses)
            .kv("branch_misses", c.branch_misses)
            .endObject();
    w.endArray().endObject();
    w.endObject();
    return w.str();
}

std::string
StageProfiler::liveJson()
{
    std::lock_guard<std::mutex> lock(mutex_);
    foldAllLocked();
    return renderJsonLocked();
}

void
StageProfiler::writeOutputs()
{
    if (cfg_.out_prefix.empty())
        return;
    std::string folded_text;
    std::string json_text;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        foldAllLocked();
        folded_text = renderFolded(folded_);
        json_text = renderJsonLocked();
        json_text.push_back('\n');
    }
    atomicWriteFile(cfg_.out_prefix + ".folded", folded_text.data(),
                    folded_text.size(), AtomicWriteOptions{});
    atomicWriteFile(cfg_.out_prefix + ".json", json_text.data(),
                    json_text.size(), AtomicWriteOptions{});
}

bool
StageProfiler::flushOutputs() noexcept
{
    try {
        writeOutputs();
        return true;
    } catch (const Exception &e) {
        logWarn("profiler: flush failed: " + e.error().describe());
    } catch (const std::exception &e) {
        logWarn(std::string("profiler: flush failed: ") + e.what());
    }
    return false;
}

} // namespace mltc
