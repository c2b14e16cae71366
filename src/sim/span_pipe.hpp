/**
 * @file
 * In-order span pipe: decouples a texel-stream producer (a rasterizer,
 * the thrasher) from its consumer (a tenant's private CacheSim) so the
 * two run concurrently on a borrowed ThreadPool.
 *
 * The pipe is a TexelAccessSink. Every call it receives is copied into
 * a small ring of fixed-capacity blocks; a block holds the refs plus an
 * event list (bind, or batch of n refs), so the real sink later sees
 * exactly the calls the producer made, with the same batch boundaries.
 *
 * Consumption:
 *  - a filled block schedules a drain task on the pool unless one is
 *    already queued or running. A drain delivers blocks oldest first,
 *    one drainer at a time, until none is ready; so the sink sees the
 *    stream in order whichever thread runs it;
 *  - a producer that finds the ring full delivers the oldest block
 *    itself (or waits for the running drainer to free one), and
 *    finish() delivers whatever is left, so the pipe makes progress
 *    even when every pool worker is busy: no deadlock at any worker
 *    count;
 *  - with a null pool the drain task runs inline at every handoff —
 *    the same code with an inline executor.
 *
 * Errors: the first exception the sink throws is kept, no later event
 * reaches the sink, and finish() rethrows it.
 */
#ifndef MLTC_SIM_SPAN_PIPE_HPP
#define MLTC_SIM_SPAN_PIPE_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <vector>

#include "obs/stage.hpp"
#include "raster/access_sink.hpp"

namespace mltc {

class ThreadPool;

class SpanPipe final : public TexelAccessSink
{
  public:
    /** Nominal refs per block (a larger batch gets a block to itself). */
    static constexpr size_t kBlockRefs = 2048;
    /** Events per block. */
    static constexpr size_t kBlockEvents = kBlockRefs / 4;
    /** Blocks in the ring: one the producer fills, three in flight. */
    static constexpr size_t kBlocks = 4;

    /**
     * Deliver to @p sink (not owned). Drain tasks run on @p pool
     * (borrowed; null runs them inline) under the profile frame
     * @p profile_root (null without a profiler); drains the producer
     * runs itself carry its own profile stack.
     */
    SpanPipe(TexelAccessSink &sink, ThreadPool *pool,
             Annotation profile_root = {});

    /**
     * Waits for a drain task still queued on the pool, which finds
     * nothing to deliver after finish(); events not finish()ed are
     * dropped. The pool must outlive the pipe or be drained first.
     */
    ~SpanPipe() override;

    SpanPipe(const SpanPipe &) = delete;
    SpanPipe &operator=(const SpanPipe &) = delete;

    void bindTexture(TextureId tid) override;
    void accessBatch(std::span<const TexelRef> refs) override;

    /**
     * Deliver every event received so far, helping on the calling
     * thread. On return the sink has seen the whole stream and its
     * state is visible to the caller; the pipe is empty and reusable.
     * Rethrows the first exception the sink threw since the last
     * finish() (the original object, type and all).
     */
    void finish();

  private:
    /** One recorded sink call. */
    struct Event
    {
        enum Kind : uint32_t
        {
            kBind,  ///< bindTexture(arg)
            kBatch, ///< accessBatch of the next arg refs
        };
        Kind kind;
        uint32_t arg;
    };
    struct Block
    {
        std::vector<TexelRef> refs;
        std::vector<Event> events;
    };

    /** Make room for @p refs refs and one event in the current block. */
    void reserve(size_t refs);
    /** Hand the current block to the consumer; wait for a free slot. */
    void handOff();
    /** Run a drain task on the pool, or inline without one. */
    void schedule();
    /**
     * Deliver up to @p max ready blocks, oldest first, unless another
     * thread is delivering. Called with @p lock held; releases it while
     * the sink runs.
     */
    void drain(std::unique_lock<std::mutex> &lock, uint64_t max);
    static void replay(TexelAccessSink &to, const Block &b);

    TexelAccessSink &sink_;
    ThreadPool *const pool_;
    const Annotation profile_root_;
    std::vector<Block> blocks_;
    Block *cur_; ///< the block the producer fills

    /** Guards every field below. */
    std::mutex mutex_;
    /** Signalled when a block is delivered or a drainer stops. */
    std::condition_variable progress_;
    uint64_t filled_ = 0;      ///< blocks handed off
    uint64_t delivered_ = 0;   ///< blocks consumed (or dropped)
    bool queued_ = false;      ///< a drain task waits in the pool
    bool draining_ = false;    ///< some thread is delivering
    std::exception_ptr error_; ///< first sink exception
};

} // namespace mltc

#endif // MLTC_SIM_SPAN_PIPE_HPP
