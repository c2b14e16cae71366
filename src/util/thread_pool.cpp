#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/env.hpp"

namespace mltc {

namespace {

/**
 * Identifies the pool (and worker slot) the current thread belongs to,
 * so nested submits can go to the submitting worker's own deque.
 */
thread_local ThreadPool *t_pool = nullptr;
thread_local unsigned t_worker = 0;

} // namespace

unsigned
ThreadPool::defaultJobs()
{
    long env = envInt("MLTC_JOBS", 0);
    if (env > 0)
        return static_cast<unsigned>(env);
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers == 0)
        workers = defaultJobs();
    queues_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.emplace_back([this, i]() { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::post(std::function<void()> fn)
{
    if (t_pool == this) {
        WorkerQueue &q = *queues_[t_worker];
        std::lock_guard<std::mutex> lock(q.mutex);
        q.jobs.push_back(std::move(fn));
    } else {
        std::lock_guard<std::mutex> lock(mutex_);
        injected_.push_back(std::move(fn));
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++queued_;
        ++unfinished_;
    }
    cv_work_.notify_one();
}

std::function<void()>
ThreadPool::findJob(unsigned self)
{
    // Own deque first, newest task (LIFO keeps nested work hot).
    {
        WorkerQueue &q = *queues_[self];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (!q.jobs.empty()) {
            std::function<void()> fn = std::move(q.jobs.back());
            q.jobs.pop_back();
            return fn;
        }
    }
    // Then the global injection queue, oldest first.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!injected_.empty()) {
            std::function<void()> fn = std::move(injected_.front());
            injected_.pop_front();
            return fn;
        }
    }
    // Finally steal from a sibling's front (FIFO — oldest, least likely
    // to be what the victim touches next).
    const unsigned n = static_cast<unsigned>(queues_.size());
    for (unsigned off = 1; off < n; ++off) {
        WorkerQueue &q = *queues_[(self + off) % n];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (!q.jobs.empty()) {
            std::function<void()> fn = std::move(q.jobs.front());
            q.jobs.pop_front();
            return fn;
        }
    }
    return nullptr;
}

void
ThreadPool::workerLoop(unsigned self)
{
    t_pool = this;
    t_worker = self;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_work_.wait(lock,
                          [this]() { return stop_ || queued_ > 0; });
            if (queued_ == 0) {
                if (stop_)
                    return; // drained: no queued work left anywhere
                continue;
            }
        }
        std::function<void()> fn = findJob(self);
        if (!fn)
            continue; // a sibling got there first; re-wait
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --queued_;
        }
        fn(); // packaged_task: exceptions land in the future
        bool idle = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            idle = --unfinished_ == 0;
        }
        if (idle)
            cv_idle_.notify_all();
        // More work may remain; make sure no sibling sleeps through it.
        cv_work_.notify_one();
    }
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_idle_.wait(lock, [this]() { return unfinished_ == 0; });
}

std::unique_ptr<ThreadPool>
jobsPool(unsigned jobs)
{
    if (jobs <= 1)
        return nullptr;
    return std::make_unique<ThreadPool>(jobs - 1);
}

namespace {

/**
 * One parallelFor() call's shared state. Helpers hold it by shared_ptr
 * because a helper the pool starts after the loop finished still reads
 * the counter (and then leaves without touching the body).
 */
struct ForState
{
    size_t count = 0;
    const std::function<void(size_t)> *body = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};

    std::mutex mutex; ///< guards done, error, error_index
    std::condition_variable cv_done;
    size_t done = 0;
    std::exception_ptr error;
    size_t error_index = 0;

    /** Take and run indices until none are left. */
    void
    drain()
    {
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= count)
                return;
            std::exception_ptr thrown;
            if (!failed.load()) {
                try {
                    (*body)(i);
                } catch (...) {
                    thrown = std::current_exception();
                    failed.store(true);
                }
            }
            std::lock_guard<std::mutex> lock(mutex);
            if (thrown && (!error || i < error_index)) {
                error = std::move(thrown);
                error_index = i;
            }
            if (++done == count)
                cv_done.notify_all();
        }
    }
};

} // namespace

void
parallelFor(ThreadPool *pool, size_t count,
            const std::function<void(size_t)> &body)
{
    if (!pool || count < 2) {
        for (size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    auto state = std::make_shared<ForState>();
    state->count = count;
    state->body = &body;
    const size_t helpers =
        std::min<size_t>(pool->workerCount(), count - 1);
    for (size_t h = 0; h < helpers; ++h)
        pool->submit([state]() { state->drain(); });
    state->drain();
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->cv_done.wait(lock, [&]() { return state->done == count; });
        // Taken out so the exception dies on this thread, not with the
        // state on whichever worker drops it last.
        error = std::move(state->error);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace mltc
