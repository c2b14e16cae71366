/**
 * @file
 * Small work-stealing thread pool for coarse-grained sweep legs.
 *
 * Each worker owns a deque: the owner pushes/pops at the back (LIFO,
 * cache-friendly for nested submits) while idle workers steal from the
 * front (FIFO, oldest-first). External threads inject through a global
 * queue. Tasks are type-erased closures; submit() returns a
 * std::future so exceptions thrown inside a task propagate to whoever
 * awaits it instead of terminating the process.
 *
 * The pool is intended for leg-level parallelism (one task == one
 * complete simulation leg, seconds of work), so queues are plain
 * mutex-protected deques — contention is unmeasurable at that grain
 * and the simple locking is trivially ThreadSanitizer-clean.
 *
 * Shutdown drains: the destructor lets queued tasks finish before
 * joining, so dropping a pool never loses submitted work.
 *
 * parallelFor() spreads a loop over a borrowed pool with the calling
 * thread helping, so it may be called from inside a pool task.
 */
#ifndef MLTC_UTIL_THREAD_POOL_HPP
#define MLTC_UTIL_THREAD_POOL_HPP

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mltc {

class ThreadPool
{
public:
    /** Spin up @p workers threads; 0 means defaultJobs(). */
    explicit ThreadPool(unsigned workers = 0);

    /** Drains every queued task, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Queue @p fn for execution. The returned future yields fn's result
     * and rethrows anything fn throws. Safe from any thread, including
     * from inside a running task (nested submits go to the submitting
     * worker's own deque).
     */
    template <typename F>
    auto submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        post([task]() { (*task)(); });
        return fut;
    }

    /** Block until every task submitted so far has run to completion. */
    void waitIdle();

    /**
     * Thread count policy shared by every --jobs consumer: the MLTC_JOBS
     * environment variable when set to a positive integer, otherwise
     * std::thread::hardware_concurrency() (minimum 1). See jobsPool().
     */
    static unsigned defaultJobs();

private:
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<std::function<void()>> jobs;
    };

    void post(std::function<void()> fn);
    void workerLoop(unsigned self);
    std::function<void()> findJob(unsigned self);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;

    std::mutex mutex_; ///< guards queued_/unfinished_/stop_ + global queue
    std::condition_variable cv_work_;
    std::condition_variable cv_idle_;
    std::deque<std::function<void()>> injected_;
    size_t queued_ = 0;     ///< tasks sitting in some queue
    size_t unfinished_ = 0; ///< tasks queued or currently running
    bool stop_ = false;
};

/**
 * The pool for a run on @p jobs threads, the calling thread among
 * them: jobs - 1 workers, or null when @p jobs <= 1, which runs
 * everything on the calling thread. The caller is the last thread
 * because it works too: it takes indices in parallelFor(), and it
 * produces into (and, when the ring is full, drains) a SpanPipe.
 */
std::unique_ptr<ThreadPool> jobsPool(unsigned jobs);

/**
 * Run @p body(i) for every i in [0, @p count), on @p pool's workers and
 * the calling thread together; returns once every call has returned.
 *
 * Every participant takes the next index from one shared counter, so
 * the caller only ever waits for calls some thread is already running:
 * a task of a pool (even a 1-worker pool) may call it on that same pool
 * without deadlock. A null pool runs the plain serial loop in index
 * order. No thread runs @p body beyond the pool's workers and the
 * caller.
 *
 * If calls throw, indices not yet taken are skipped and the exception
 * of the lowest throwing index is rethrown: every lower index was taken
 * first and ran, so that is the exception the serial loop would throw.
 */
void parallelFor(ThreadPool *pool, size_t count,
                 const std::function<void(size_t)> &body);

} // namespace mltc

#endif // MLTC_UTIL_THREAD_POOL_HPP
