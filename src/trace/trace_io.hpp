/**
 * @file
 * Span-native texel-access trace recording and replay.
 *
 * Lets a workload be rasterized once and the resulting access stream be
 * replayed into any number of cache configurations later (trace-driven
 * simulation, as the paper's methodology is). The file records exactly
 * the TexelRef stream a sink receives — texels, bilinear quads and
 * pixel markers, with the texture binds between them — as
 * length-prefixed span records of delta/varint-coded refs (about
 * 1.05 bytes per texel reference on bilinear Village frames). Replay
 * decodes ahead on one helper thread per reader: it reads the file
 * through a fixed 256 KiB window and decodes each span into a slot of
 * a small ring, and the replaying thread delivers each slot as one
 * accessBatch() call, so decoding overlaps the simulation and a
 * replayed run sees the same events as the rasterized one, screen
 * positions included. docs/trace_format.md specifies the grammar, the
 * error taxonomy and the decode-ahead contract.
 */
#ifndef MLTC_TRACE_TRACE_IO_HPP
#define MLTC_TRACE_TRACE_IO_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "raster/access_sink.hpp"

namespace mltc {

/** Closes a stdio handle owned by a std::unique_ptr (errors ignored). */
struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};

/**
 * Sink that serialises the access stream to a file.
 *
 * Refs are buffered between binds and written as one span record per
 * at most 4096 refs; every ref, pixel markers included, is recorded
 * verbatim. Every write is checked: a full disk or a vanished
 * file throws a typed mltc::Exception (ErrorCode::Io) rather than
 * silently producing a truncated trace, and so does any entry point
 * called after close(). Call close() to finish the file — it writes the
 * trailer the reader requires and reports fclose failure. A writer
 * destroyed without close() leaves no trailer, so its file replays as
 * Truncated.
 */
class TraceWriter final : public TexelAccessSink
{
  public:
    /** Open @p path; throws mltc::Exception (Io) on failure. */
    explicit TraceWriter(const std::string &path);

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void bindTexture(TextureId tid) override;
    void accessBatch(std::span<const TexelRef> refs) override;

    /** Mark a frame boundary. */
    void endFrame();

    /**
     * End an open frame, write the trailer, flush and close; throws
     * mltc::Exception (Io) when a write or fclose fails. A second call
     * is a no-op.
     */
    void close();

  private:
    /** Write the buffered span (if any) as one record. */
    void flushSpan();
    void put(const void *data, size_t size);
    void requireOpen() const;

    std::unique_ptr<std::FILE, FileCloser> file_;
    std::vector<TexelRef> span_;   ///< refs of the open span
    std::vector<uint8_t> payload_; ///< encode buffer for a full span
    uint64_t frames_ = 0;
    uint64_t refs_ = 0;
    bool frame_open_ = false;
};

/**
 * Replays a recorded trace into a sink.
 *
 * Decoding runs ahead of the sink: the reader owns one decode thread
 * that reads the file through the read window and decodes each record
 * into a fixed ring of slots (a bind, a whole span, a frame end, the
 * trailer, or the first error). replayFrame() drains the ring on the
 * caller's thread in file order, so the sink sees exactly the calls a
 * serial decode would make, on the thread that calls replayFrame().
 *
 * Malformed input (truncation anywhere before the trailer, unknown
 * opcodes, a bad header, a corrupt span payload or trailer) is rejected
 * with a typed mltc::Exception naming the offending record's offset —
 * never a crash, hang or silent misparse. The error is raised when
 * replay reaches the bad record, after every record before it has been
 * delivered. mltc::Exception derives std::runtime_error, so existing
 * catch sites keep working.
 */
class TraceReader
{
  public:
    /**
     * Open @p path and start the decode thread; throws mltc::Exception
     * (Io / Truncated / BadMagic) on failure, without leaking the handle
     * or starting the thread.
     */
    explicit TraceReader(const std::string &path);

    /** Stop the decode thread, even one waiting on a full ring. */
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /**
     * Replay events into @p sink until the next frame boundary or the
     * trailer. Each span record reaches the sink as one accessBatch()
     * call, with bindTexture() between the spans. An exception from the
     * sink propagates, and the next call resumes after that record; a
     * trace error is rethrown by every later call.
     * @return true when a frame was delivered, false once the trailer
     *         has been read and checked.
     */
    bool replayFrame(TexelAccessSink &sink);

    /** Replay the whole trace; @return number of frames delivered. */
    uint64_t replayAll(TexelAccessSink &sink);

  private:
    struct Slot;

    // --- Decode thread ----------------------------------------------------
    /** Decode records into the ring until the trailer, an error or stop. */
    void decodeAhead();
    /** Decode the record at the window head into @p slot, or throw. */
    void decodeRecord(Slot &slot);
    /**
     * Make at least @p n unread bytes available in the window, reading
     * more of the file as needed; @return the unread byte count, which
     * is below @p n only at end of file.
     */
    size_t fill(size_t n);
    void readBind(uint64_t at, Slot &slot);
    void readSpan(uint64_t at, Slot &slot);
    void readTrailer(uint64_t at);

    // --- Replaying thread -------------------------------------------------
    /** Wait for the next decoded slot. */
    Slot &nextSlot();
    /** Hand the current slot back to the decode thread. */
    void releaseSlot();

    // Owned by the decode thread once it runs.
    std::unique_ptr<std::FILE, FileCloser> file_;
    std::unique_ptr<uint8_t[]> window_;
    size_t head_ = 0;  ///< first unread byte in window_
    size_t tail_ = 0;  ///< one past the last valid byte in window_
    uint64_t base_ = 0; ///< file offset of window_[0]
    bool eof_ = false;
    uint64_t frames_ = 0;
    uint64_t refs_ = 0;
    bool frame_open_ = false;

    // Owned by the replaying thread.
    uint32_t read_ = 0;  ///< slots taken so far
    uint32_t ready_ = 0; ///< produced_ as last loaded
    bool done_ = false;

    // The ring. Both counters only grow (mod 2^32); slot i lives at
    // ring_[i % kSlots]. The decode thread publishes a slot with a
    // release store to produced_, the replaying thread hands it back
    // with one to consumed_. Each side blocks in atomic::wait (it spins
    // before it sleeps): the replaying thread on an empty ring, the
    // decode thread on a full one.
    std::unique_ptr<Slot[]> ring_;
    alignas(64) std::atomic<uint32_t> produced_{0};
    alignas(64) std::atomic<uint32_t> consumed_{0};
    std::atomic<bool> stop_{false};
    std::thread decoder_; ///< started last, joined first
};

} // namespace mltc

#endif // MLTC_TRACE_TRACE_IO_HPP
