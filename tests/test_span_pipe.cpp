/**
 * @file
 * SpanPipe tests: a stream sent through the pipe reaches its sink as
 * exactly the calls a direct delivery makes (same binds, same batch
 * boundaries, same order) with no pool, one worker or eight; a sink
 * that throws at event k sees nothing after k and finish() rethrows its
 * error; a producer that throws still gets its earlier events
 * delivered; finish() completes while every pool worker is busy; and
 * a pipe outlives the drain task it still has queued.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/span_pipe.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mltc {
namespace {

/**
 * Records every call as text (a scalar call arrives as a one-ref
 * batch); optionally throws once, on call number k, and records any
 * later call it still receives.
 */
class RecordingSink final : public TexelAccessSink
{
  public:
    explicit RecordingSink(int throw_at = -1) : throw_at_(throw_at) {}

    void bindTexture(TextureId tid) override
    {
        note("bind " + std::to_string(tid));
    }

    void accessBatch(std::span<const TexelRef> refs) override
    {
        std::string s = "batch " + std::to_string(refs.size()) + ":";
        for (const TexelRef &r : refs)
            s += " " + ref(r);
        note(s);
    }

    std::vector<std::string> calls;

  private:
    static std::string ref(const TexelRef &r)
    {
        return std::to_string(r.kind) + "/" + std::to_string(r.x0) + "," +
               std::to_string(r.y0) + "," + std::to_string(r.x1) + "," +
               std::to_string(r.y1) + "@" + std::to_string(r.mip);
    }

    void note(std::string s)
    {
        if (static_cast<int>(calls.size()) == throw_at_ && !thrown_) {
            thrown_ = true;
            throw Exception(ErrorCode::Corrupt,
                            "sink fault at event " + std::to_string(throw_at_));
        }
        calls.push_back(std::move(s));
    }

    int throw_at_;
    bool thrown_ = false;
};

/** One producer call. */
struct Op
{
    enum Kind { Bind, Batch, Texel, Quad, Pixel } kind;
    TextureId tid = 0;
    std::vector<TexelRef> refs;
};

void
play(const std::vector<Op> &ops, TexelAccessSink &sink, size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        const Op &op = ops[i];
        const TexelRef *r = op.refs.empty() ? nullptr : &op.refs[0];
        switch (op.kind) {
          case Op::Bind:
            sink.bindTexture(op.tid);
            break;
          case Op::Batch:
            sink.accessBatch(op.refs);
            break;
          case Op::Texel:
            sink.access(r->x0, r->y0, r->mip);
            break;
          case Op::Quad:
            sink.accessQuad(r->x0, r->y0, r->x1, r->y1, r->mip);
            break;
          case Op::Pixel:
            sink.beginPixel(r->x0, r->y0);
            break;
        }
    }
}

void
play(const std::vector<Op> &ops, TexelAccessSink &sink)
{
    play(ops, sink, ops.size());
}

/** Uniform-ish draw in [0, n). */
uint32_t
draw(std::mt19937 &rng, uint32_t n)
{
    return static_cast<uint32_t>(rng() % n);
}

TexelRef
randomRef(std::mt19937 &rng)
{
    const uint32_t x = draw(rng, 512), y = draw(rng, 512), m = draw(rng, 9);
    switch (draw(rng, 3)) {
      case 0:
        return TexelRef::texel(x, y, m);
      case 1:
        return TexelRef::quad(x, y, x + 1, y + 1, m);
      default:
        return TexelRef::pixel(x, y);
    }
}

/**
 * A bind-heavy stream: binds, empty and short batches (under
 * @p max_batch refs) and scalar calls, with one batch of @p big refs in
 * the middle.
 */
std::vector<Op>
bindHeavyStream(uint32_t seed, size_t ops, size_t big = 0,
                uint32_t max_batch = 12)
{
    std::mt19937 rng(seed);
    std::vector<Op> out;
    for (size_t i = 0; i < ops; ++i) {
        Op op{Op::Batch, 0, {}};
        const uint32_t pick = draw(rng, 10);
        if (pick < 4) {
            op.kind = Op::Bind;
            op.tid = 1 + draw(rng, 7);
        } else if (pick < 8) {
            const size_t n = draw(rng, max_batch); // empty ones included
            for (size_t j = 0; j < n; ++j)
                op.refs.push_back(randomRef(rng));
        } else {
            op.kind = pick == 8 ? Op::Texel : Op::Quad;
            op.refs.push_back(randomRef(rng));
        }
        out.push_back(std::move(op));
        if (big > 0 && i == ops / 2) {
            Op large{Op::Batch, 0, {}};
            for (size_t j = 0; j < big; ++j)
                large.refs.push_back(randomRef(rng));
            out.push_back(std::move(large));
        }
    }
    out.push_back({Op::Pixel, 0, {TexelRef::pixel(3, 4)}});
    return out;
}

/**
 * One single-ref batch per event: a block boundary every
 * SpanPipe::kBlockEvents events.
 */
std::vector<Op>
oneRefBatches(size_t n)
{
    std::vector<Op> out;
    for (uint32_t i = 0; i < n; ++i)
        out.push_back({Op::Batch, 0, {TexelRef::texel(i, i, 0)}});
    return out;
}

std::vector<std::string>
direct(const std::vector<Op> &ops, size_t count)
{
    RecordingSink sink;
    play(ops, sink, count);
    return sink.calls;
}

/** The pool configurations every case runs under: none, 1, 8 workers. */
std::vector<std::unique_ptr<ThreadPool>>
pools()
{
    std::vector<std::unique_ptr<ThreadPool>> out;
    out.push_back(nullptr);
    out.push_back(std::make_unique<ThreadPool>(1));
    out.push_back(std::make_unique<ThreadPool>(8));
    return out;
}

std::string
label(const std::unique_ptr<ThreadPool> &pool)
{
    return pool ? std::to_string(pool->workerCount()) + " workers"
                : "no pool";
}

constexpr size_t kEvents = SpanPipe::kBlockEvents;

TEST(SpanPipe, BindHeavyStreamMatchesDirectDelivery)
{
    // Short batches fill blocks by event count, long ones by ref
    // count; 5000 ops are several times what the ring holds.
    for (const auto &pool : pools()) {
        for (uint32_t seed = 1; seed <= 4; ++seed) {
            const uint32_t max_batch = seed % 2 ? 12 : 200;
            const std::vector<Op> ops =
                bindHeavyStream(seed, 5000, 0, max_batch);
            RecordingSink sink;
            SpanPipe pipe(sink, pool.get());
            play(ops, pipe);
            pipe.finish();
            EXPECT_EQ(sink.calls, direct(ops, ops.size()))
                << label(pool) << ", seed " << seed;
        }
    }
}

TEST(SpanPipe, BatchLargerThanABlockStaysOneBatch)
{
    const size_t big = 3 * SpanPipe::kBlockRefs + 3;
    const std::string head = "batch " + std::to_string(big) + ":";
    for (const auto &pool : pools()) {
        const std::vector<Op> ops = bindHeavyStream(9, 3000, big);
        RecordingSink sink;
        SpanPipe pipe(sink, pool.get());
        play(ops, pipe);
        pipe.finish();
        EXPECT_EQ(sink.calls, direct(ops, ops.size())) << label(pool);
        size_t found = 0;
        for (const std::string &c : sink.calls)
            found += c.rfind(head, 0) == 0;
        EXPECT_EQ(found, 1u) << label(pool);
    }
}

TEST(SpanPipe, PipeIsReusableAcrossFinishes)
{
    for (const auto &pool : pools()) {
        RecordingSink sink;
        SpanPipe pipe(sink, pool.get());
        std::vector<std::string> want;
        for (uint32_t round = 0; round < 4; ++round) {
            const std::vector<Op> ops = bindHeavyStream(20 + round, 1500);
            play(ops, pipe);
            pipe.finish();
            const std::vector<std::string> d = direct(ops, ops.size());
            want.insert(want.end(), d.begin(), d.end());
            // finish() returned: everything so far has been delivered.
            EXPECT_EQ(sink.calls, want) << label(pool) << ", round " << round;
        }
    }
}

TEST(SpanPipe, ConsumerErrorStopsDeliveryAndIsRethrown)
{
    // Five blocks' worth, so the ring wraps; k straddles the first and
    // second block boundaries.
    const std::vector<Op> ops = oneRefBatches(4 * kEvents + 52);
    const int b = static_cast<int>(kEvents);
    for (const auto &pool : pools()) {
        for (int k : {0, b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1,
                      static_cast<int>(ops.size()) - 1}) {
            RecordingSink sink(k);
            SpanPipe pipe(sink, pool.get());
            // The producer never sees the sink's error.
            EXPECT_NO_THROW(play(ops, pipe));
            try {
                pipe.finish();
                ADD_FAILURE() << "finish() did not rethrow, k=" << k;
            } catch (const Exception &e) {
                EXPECT_EQ(e.code(), ErrorCode::Corrupt) << "k=" << k;
                EXPECT_EQ(std::string(e.what()),
                          "sink fault at event " + std::to_string(k));
            }
            EXPECT_EQ(sink.calls, direct(ops, static_cast<size_t>(k)))
                << label(pool) << ", k=" << k;
            // The error is reported once; the pipe is usable again.
            EXPECT_NO_THROW(pipe.finish());
        }
    }
}

TEST(SpanPipe, RethrowsTheSinksOwnExceptionType)
{
    class Throws final : public TexelAccessSink
    {
      public:
        void bindTexture(TextureId) override
        {
            throw std::out_of_range("bad tid");
        }
        void accessBatch(std::span<const TexelRef>) override {}
    };
    for (const auto &pool : pools()) {
        Throws sink;
        SpanPipe pipe(sink, pool.get());
        pipe.bindTexture(3);
        EXPECT_THROW(pipe.finish(), std::out_of_range) << label(pool);
    }
}

TEST(SpanPipe, ProducerErrorStillDeliversWhatCameBefore)
{
    const std::vector<Op> ops = bindHeavyStream(31, 5000);
    for (const auto &pool : pools()) {
        for (size_t m : {size_t{0}, size_t{1}, size_t{kEvents},
                         size_t{4000}}) {
            RecordingSink sink;
            SpanPipe pipe(sink, pool.get());
            // The multi-stream leg's shape: deliver, then rethrow.
            auto leg = [&] {
                try {
                    play(ops, pipe, m);
                    throw Exception(ErrorCode::Io, "producer fault");
                } catch (...) {
                    pipe.finish();
                    throw;
                }
            };
            try {
                leg();
                ADD_FAILURE() << "leg did not throw";
            } catch (const Exception &e) {
                EXPECT_EQ(e.code(), ErrorCode::Io);
            }
            EXPECT_EQ(sink.calls, direct(ops, m))
                << label(pool) << ", m=" << m;
        }
    }
}

TEST(SpanPipe, EarlierConsumerErrorWinsOverProducerError)
{
    const std::vector<Op> ops = oneRefBatches(4 * kEvents);
    const int k = static_cast<int>(kEvents) + 6;
    for (const auto &pool : pools()) {
        RecordingSink sink(k);
        SpanPipe pipe(sink, pool.get());
        try {
            try {
                play(ops, pipe, 3 * kEvents + 30);
                throw Exception(ErrorCode::Io, "producer fault");
            } catch (...) {
                pipe.finish();
                throw;
            }
        } catch (const Exception &e) {
            EXPECT_EQ(e.code(), ErrorCode::Corrupt) << label(pool);
        }
        EXPECT_EQ(sink.calls, direct(ops, k)) << label(pool);
    }
}

TEST(SpanPipe, FinishCompletesWhileEveryWorkerIsBusy)
{
    ThreadPool pool(2);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::atomic<int> parked{0};
    for (unsigned i = 0; i < pool.workerCount(); ++i)
        pool.submit([open, &parked] {
            parked.fetch_add(1);
            open.wait();
        });
    while (parked.load() < 2)
        std::this_thread::yield();

    // Far more blocks than the ring holds; no worker can drain any.
    const std::vector<Op> ops = bindHeavyStream(41, 20000);
    RecordingSink sink;
    SpanPipe pipe(sink, &pool);
    auto producer = std::async(std::launch::async, [&] {
        play(ops, pipe);
        pipe.finish();
    });
    const bool done = producer.wait_for(std::chrono::seconds(60)) ==
                      std::future_status::ready;
    gate.set_value();
    ASSERT_TRUE(done) << "finish() hung with every worker busy";
    producer.get();
    EXPECT_EQ(sink.calls, direct(ops, ops.size()));
}

TEST(SpanPipe, DestructorWaitsForAQueuedDrain)
{
    ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::atomic<bool> parked{false};
    pool.submit([open, &parked] {
        parked = true;
        open.wait();
    });
    while (!parked.load())
        std::this_thread::yield();

    RecordingSink sink;
    const std::vector<Op> ops = oneRefBatches(kEvents + 2);
    auto pipe = std::make_unique<SpanPipe>(sink, &pool);
    play(ops, *pipe); // the full block queues a drain task
    pipe->finish();   // ... and the producer delivers everything itself
    EXPECT_EQ(sink.calls, direct(ops, ops.size()));
    // The queued task still refers to the pipe: destroying it must
    // wait until the worker has run that task.
    auto destroy = std::async(std::launch::async, [&] { pipe.reset(); });
    EXPECT_EQ(destroy.wait_for(std::chrono::milliseconds(100)),
              std::future_status::timeout);
    gate.set_value();
    destroy.get();
    EXPECT_EQ(sink.calls.size(), ops.size());
}

} // namespace
} // namespace mltc
