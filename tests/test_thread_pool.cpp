/**
 * @file
 * Unit tests for the work-stealing ThreadPool and the SweepExecutor
 * that runs its legs through parallelFor(): completion,
 * result/exception propagation through futures, nested submits,
 * drain-on-shutdown, the MLTC_JOBS default policy, and — the property
 * the parallel sweep engine rests on — in-registration-order emission
 * no matter how the pool schedules the legs, also when run() is called
 * from tasks of its own pool. parallelFor() is checked for
 * exactly-once coverage, its thread bound, its exception choice and
 * nested use from inside pool tasks.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/parallel_runner.hpp"
#include "sim/resilience.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mltc {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&ran]() { ran.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, FuturesCarryResults)
{
    ThreadPool pool(3);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 50; ++i)
        futs.push_back(pool.submit([i]() { return i * i; }));
    int sum = 0;
    for (auto &f : futs)
        sum += f.get();
    int expect = 0;
    for (int i = 0; i < 50; ++i)
        expect += i * i;
    EXPECT_EQ(sum, expect);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures)
{
    ThreadPool pool(2);
    auto ok = pool.submit([]() { return 7; });
    auto boom = pool.submit([]() -> int {
        throw std::runtime_error("leg exploded");
    });
    auto typed = pool.submit([]() -> int {
        throw Exception(ErrorCode::Io, "disk gone");
    });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(
        {
            try {
                boom.get();
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "leg exploded");
                throw;
            }
        },
        std::runtime_error);
    EXPECT_THROW(
        {
            try {
                typed.get();
            } catch (const Exception &e) {
                EXPECT_EQ(e.code(), ErrorCode::Io);
                throw;
            }
        },
        Exception);
    // A throwing task must not poison the pool.
    auto after = pool.submit([]() { return 11; });
    EXPECT_EQ(after.get(), 11);
}

TEST(ThreadPool, NestedSubmitsComplete)
{
    ThreadPool pool(2);
    std::atomic<int> inner_ran{0};
    auto outer = pool.submit([&]() {
        std::vector<std::future<void>> inner;
        for (int i = 0; i < 8; ++i)
            inner.push_back(
                pool.submit([&inner_ran]() { inner_ran.fetch_add(1); }));
        for (auto &f : inner)
            f.get();
        return inner_ran.load();
    });
    EXPECT_EQ(outer.get(), 8);
}

TEST(ThreadPool, DestructorDrainsQueuedWork)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&ran]() {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                ran.fetch_add(1);
            });
        // No waitIdle(): the destructor must not drop queued tasks.
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, DefaultJobsHonoursEnvironment)
{
    setenv("MLTC_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
    setenv("MLTC_JOBS", "0", 1); // non-positive -> hardware policy
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
    unsetenv("MLTC_JOBS");
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

TEST(ThreadPool, JobsPoolLeavesOneThreadToTheCaller)
{
    EXPECT_EQ(jobsPool(0), nullptr);
    EXPECT_EQ(jobsPool(1), nullptr);
    EXPECT_EQ(jobsPool(2)->workerCount(), 1u);
    EXPECT_EQ(jobsPool(4)->workerCount(), 3u);
}

/** Outcome of every leg of @p manifest, in leg order. */
std::vector<LegOutcome>
outcomes(const SweepManifest &manifest)
{
    std::vector<LegOutcome> out;
    for (const LegResult &leg : manifest.legs)
        out.push_back(leg.outcome);
    return out;
}

/** Null (serial) and a pool of each listed size. */
std::vector<std::unique_ptr<ThreadPool>>
pools(std::initializer_list<unsigned> workers)
{
    std::vector<std::unique_ptr<ThreadPool>> out;
    out.push_back(nullptr);
    for (unsigned w : workers)
        out.push_back(std::make_unique<ThreadPool>(w));
    return out;
}

std::string
label(const std::unique_ptr<ThreadPool> &pool)
{
    return pool ? std::to_string(pool->workerCount()) + " workers"
                : "serial";
}

TEST(SweepExecutor, EmitsBufferedOutputInRegistrationOrder)
{
    // Legs finish in reverse order (leg 0 slowest); stdout must still
    // read leg0, leg1, ... — the byte-identical-output property.
    for (const auto &pool : pools({4u})) {
        SweepExecutor sweep(pool.get());
        const int n = 6;
        for (int i = 0; i < n; ++i)
            sweep.addLeg("leg" + std::to_string(i), [i, n](LegContext &ctx) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2 * (n - i)));
                ctx.printf("leg%d\n", i);
            });
        testing::internal::CaptureStdout();
        SweepManifest manifest = sweep.run();
        const std::string out = testing::internal::GetCapturedStdout();
        std::string expect;
        for (int i = 0; i < n; ++i)
            expect += "leg" + std::to_string(i) + "\n";
        EXPECT_EQ(out, expect) << label(pool);
        EXPECT_EQ(outcomes(manifest),
                  std::vector<LegOutcome>(n, LegOutcome::Completed))
            << label(pool);
    }
}

TEST(SweepExecutor, FailedLegIsContainedAndReported)
{
    for (const auto &pool : pools({3u})) {
        SweepExecutor sweep(pool.get());
        std::atomic<int> ran{0};
        sweep.addLeg("good-a", [&](LegContext &) { ran.fetch_add(1); });
        sweep.addLeg("bad", [](LegContext &) {
            throw Exception(ErrorCode::Corrupt, "checksum mismatch");
        });
        sweep.addLeg("good-b", [&](LegContext &) { ran.fetch_add(1); });
        SweepManifest manifest = sweep.run();
        EXPECT_EQ(ran.load(), 2);
        ASSERT_EQ(manifest.legs.size(), 3u);
        EXPECT_EQ(manifest.legs[0].outcome, LegOutcome::Completed);
        EXPECT_EQ(manifest.legs[1].outcome, LegOutcome::Failed);
        EXPECT_NE(manifest.legs[1].error.find("checksum mismatch"),
                  std::string::npos);
        EXPECT_EQ(manifest.legs[2].outcome, LegOutcome::Completed);
    }
}

TEST(SweepExecutor, CancellationStopsDispatchingLegs)
{
    clearCancellation();
    SweepExecutor sweep(nullptr); // serial: deterministic dispatch order
    std::atomic<int> ran{0};
    sweep.addLeg("first", [&](LegContext &) {
        ran.fetch_add(1);
        requestCancellation();
    });
    sweep.addLeg("second", [&](LegContext &) { ran.fetch_add(1); });
    SweepManifest manifest = sweep.run();
    clearCancellation();
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(manifest.legs[0].outcome, LegOutcome::Completed);
    EXPECT_EQ(manifest.legs[1].outcome, LegOutcome::Cancelled);
}

TEST(SweepExecutor, ManifestIsThreadCountInvariant)
{
    auto render = [](ThreadPool *pool) {
        SweepExecutor sweep(pool);
        sweep.addLeg("alpha", [](LegContext &) {});
        sweep.addLeg("beta", [](LegContext &) {
            throw std::runtime_error("beta failed");
        });
        return sweep.run();
    };
    const SweepManifest serial = render(nullptr);
    ThreadPool eight(8);
    const SweepManifest parallel = render(&eight);
    ASSERT_EQ(serial.legs.size(), 2u);
    ASSERT_EQ(parallel.legs.size(), 2u);
    EXPECT_EQ(outcomes(serial),
              (std::vector<LegOutcome>{LegOutcome::Completed,
                                       LegOutcome::Failed}));
    EXPECT_EQ(outcomes(parallel), outcomes(serial));
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(parallel.legs[i].name, serial.legs[i].name);
        EXPECT_EQ(parallel.legs[i].error, serial.legs[i].error);
    }
    EXPECT_EQ(serial.legs[1].error, "beta failed");
}

TEST(SweepExecutor, RunFromTasksOfItsOwnPoolCompletes)
{
    // Both workers meet at the barrier and then each run a sweep on
    // their own pool, so no idle worker is left to take the legs: each
    // run() must finish its legs on its calling thread. (An executor
    // that waits for the pool to run them blocks both workers for
    // good; the ctest TIMEOUT of this suite turns that into a failure.)
    ThreadPool pool(2);
    std::barrier meet(2);
    std::atomic<int> ran{0};
    auto sweepInTask = [&] {
        meet.arrive_and_wait();
        SweepExecutor sweep(&pool);
        for (int i = 0; i < 2; ++i)
            sweep.addLeg("leg" + std::to_string(i),
                         [&](LegContext &) { ran.fetch_add(1); });
        return sweep.run();
    };
    auto a = pool.submit(sweepInTask);
    auto b = pool.submit(sweepInTask);
    for (auto *fut : {&a, &b}) {
        const SweepManifest manifest = fut->get();
        ASSERT_EQ(manifest.legs.size(), 2u);
        for (const LegResult &leg : manifest.legs)
            EXPECT_EQ(leg.outcome, LegOutcome::Completed) << leg.name;
    }
    EXPECT_EQ(ran.load(), 4);
}

TEST(ParallelFor, RunsEveryIndexOnceOnTheWorkersAndTheCaller)
{
    for (unsigned workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
            std::vector<std::atomic<int>> hits(count);
            std::mutex mutex;
            std::set<std::thread::id> threads;
            parallelFor(&pool, count, [&](size_t i) {
                hits[i].fetch_add(1);
                std::lock_guard<std::mutex> lock(mutex);
                threads.insert(std::this_thread::get_id());
            });
            for (size_t i = 0; i < count; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << workers << " workers, index " << i;
            EXPECT_LE(threads.size(), workers + 1u) << workers << " workers";
        }
    }
}

TEST(ParallelFor, NullPoolIsTheSerialLoop)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    parallelFor(nullptr, 5, [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, RethrowsTheLowestThrowingIndex)
{
    // Index 3 is taken before 700, so it always runs and its exception
    // wins, as in the serial loop, even when 700 throws first; the pool
    // survives.
    ThreadPool four(4);
    for (ThreadPool *pool : {static_cast<ThreadPool *>(nullptr), &four}) {
        for (int rep = 0; rep < 20; ++rep) {
            try {
                parallelFor(pool, 1000, [](size_t i) {
                    if (i == 3)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(2));
                    if (i == 3 || i == 700)
                        throw std::runtime_error("index " +
                                                 std::to_string(i));
                });
                FAIL() << "parallelFor must rethrow";
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "index 3");
            }
        }
    }
    EXPECT_EQ(four.submit([] { return 5; }).get(), 5);
}

TEST(ParallelFor, NestedCallsFromInsidePoolTasksFinish)
{
    // The only worker runs the outer task, so every inner index falls
    // to the caller; waiting on queued helpers would deadlock.
    ThreadPool pool(1);
    std::atomic<int> leaves{0};
    auto outer = pool.submit([&] {
        parallelFor(&pool, 4, [&](size_t) {
            parallelFor(&pool, 8, [&](size_t) { leaves.fetch_add(1); });
        });
        return leaves.load();
    });
    ASSERT_EQ(outer.wait_for(std::chrono::seconds(60)),
              std::future_status::ready);
    EXPECT_EQ(outer.get(), 32);

    // And from the calling thread of a wider pool, nested both ways.
    ThreadPool wide(3);
    std::atomic<int> more{0};
    parallelFor(&wide, 6, [&](size_t) {
        parallelFor(&wide, 6, [&](size_t) { more.fetch_add(1); });
    });
    EXPECT_EQ(more.load(), 36);
}

TEST(JobsFromCli, ParsesAndDefaults)
{
    {
        const char *argv[] = {"prog", "--jobs=5"};
        CommandLine cli(2, const_cast<char **>(argv));
        EXPECT_EQ(jobsFromCli(cli), 5u);
    }
    {
        const char *argv[] = {"prog"};
        CommandLine cli(1, const_cast<char **>(argv));
        EXPECT_GE(jobsFromCli(cli), 1u);
    }
    {
        const char *argv[] = {"prog", "--jobs=9999"};
        CommandLine cli(2, const_cast<char **>(argv));
        EXPECT_THROW(jobsFromCli(cli), Exception);
    }
}

} // namespace
} // namespace mltc
