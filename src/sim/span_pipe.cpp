#include "sim/span_pipe.hpp"

#include <limits>
#include <utility>

#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"

namespace mltc {

namespace {

constexpr uint64_t kAllReady = std::numeric_limits<uint64_t>::max();

} // namespace

SpanPipe::SpanPipe(TexelAccessSink &sink, ThreadPool *pool,
                   const char *profile_root)
    : sink_(sink), pool_(pool), profile_root_(profile_root),
      blocks_(kBlocks)
{
    for (Block &b : blocks_) {
        b.refs.reserve(kBlockRefs);
        b.events.reserve(kBlockEvents);
    }
    cur_ = &blocks_[0];
}

SpanPipe::~SpanPipe()
{
    std::unique_lock<std::mutex> lock(mutex_);
    progress_.wait(lock, [this] { return !queued_ && !draining_; });
}

void
SpanPipe::bindTexture(TextureId tid)
{
    reserve(0);
    cur_->events.push_back({Event::kBind, tid});
}

void
SpanPipe::accessBatch(std::span<const TexelRef> refs)
{
    reserve(refs.size());
    cur_->refs.insert(cur_->refs.end(), refs.begin(), refs.end());
    cur_->events.push_back(
        {Event::kBatch, static_cast<uint32_t>(refs.size())});
}

void
SpanPipe::reserve(size_t refs)
{
    // A batch larger than a block lands alone in an empty one, which
    // grows to fit it: batches are never split.
    if (!cur_->events.empty() &&
        (cur_->refs.size() + refs > kBlockRefs ||
         cur_->events.size() >= kBlockEvents))
        handOff();
}

void
SpanPipe::handOff()
{
    std::unique_lock<std::mutex> lock(mutex_);
    const uint64_t f = ++filled_;
    // A queued or running drain picks this block up before it stops.
    const bool idle = !queued_ && !draining_;
    queued_ = queued_ || idle;
    lock.unlock();
    if (idle)
        schedule();
    lock.lock();
    // The next slot is free once the block that last used it has been
    // delivered; deliver it here unless a drainer already is.
    while (f - delivered_ >= kBlocks) {
        if (draining_)
            progress_.wait(lock);
        else
            drain(lock, 1);
    }
    cur_ = &blocks_[f % kBlocks];
}

void
SpanPipe::schedule()
{
    auto task = [this] {
        std::unique_lock<std::mutex> lock(mutex_);
        queued_ = false;
        drain(lock, kAllReady);
    };
    if (!pool_) {
        task();
        return;
    }
    pool_->submit([task = std::move(task), root = profile_root_] {
        // Credit the work to the tenant, not to whichever leg's worker
        // happened to pick it up.
        ScopedProfileStage prof(root);
        task();
    });
}

void
SpanPipe::finish()
{
    if (!cur_->events.empty())
        handOff();
    std::unique_lock<std::mutex> lock(mutex_);
    while (delivered_ < filled_) {
        if (draining_)
            progress_.wait(lock);
        else
            drain(lock, kAllReady);
    }
    std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

void
SpanPipe::drain(std::unique_lock<std::mutex> &lock, uint64_t max)
{
    if (draining_)
        return;
    draining_ = true;
    for (uint64_t n = 0; n < max && delivered_ < filled_; ++n) {
        Block &b = blocks_[delivered_ % kBlocks];
        const bool deliver = !error_;
        lock.unlock();
        std::exception_ptr thrown;
        if (deliver) {
            try {
                replay(sink_, b);
            } catch (...) {
                thrown = std::current_exception();
            }
        }
        b.refs.clear();
        b.events.clear();
        lock.lock();
        if (thrown)
            error_ = thrown;
        ++delivered_;
        progress_.notify_all();
    }
    draining_ = false;
    progress_.notify_all();
}

void
SpanPipe::replay(TexelAccessSink &to, const Block &b)
{
    const TexelRef *r = b.refs.data();
    for (const Event &e : b.events) {
        if (e.kind == Event::kBind) {
            to.bindTexture(e.arg);
        } else {
            to.accessBatch({r, e.arg});
            r += e.arg;
        }
    }
}

} // namespace mltc
