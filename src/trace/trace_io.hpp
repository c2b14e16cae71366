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
 * decodes each span through a fixed 256 KiB read window straight into
 * one accessBatch() call, so a replayed run sees the same events as
 * the rasterized one, screen positions included. docs/trace_format.md
 * specifies the grammar and the error taxonomy.
 */
#ifndef MLTC_TRACE_TRACE_IO_HPP
#define MLTC_TRACE_TRACE_IO_HPP

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
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
 * Malformed input (truncation anywhere before the trailer, unknown
 * opcodes, a bad header, a corrupt span payload or trailer) is rejected
 * with a typed mltc::Exception naming the offending record's offset —
 * never a crash, hang or silent misparse. mltc::Exception derives
 * std::runtime_error, so existing catch sites keep working.
 */
class TraceReader
{
  public:
    /**
     * Open @p path; throws mltc::Exception (Io / Truncated / BadMagic)
     * on failure, without leaking the handle.
     */
    explicit TraceReader(const std::string &path);

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /**
     * Replay events into @p sink until the next frame boundary or the
     * trailer. Each span record reaches the sink as one accessBatch()
     * call, with bindTexture() between the spans.
     * @return true when a frame was delivered, false once the trailer
     *         has been read and checked.
     */
    bool replayFrame(TexelAccessSink &sink);

    /** Replay the whole trace; @return number of frames delivered. */
    uint64_t replayAll(TexelAccessSink &sink);

  private:
    /**
     * Make at least @p n unread bytes available in the window, reading
     * more of the file as needed; @return the unread byte count, which
     * is below @p n only at end of file.
     */
    size_t fill(size_t n);
    void readBind(uint64_t at, TexelAccessSink &sink);
    void readSpan(uint64_t at, TexelAccessSink &sink);
    void readTrailer(uint64_t at);

    std::unique_ptr<std::FILE, FileCloser> file_;
    std::unique_ptr<uint8_t[]> window_;
    size_t head_ = 0;  ///< first unread byte in window_
    size_t tail_ = 0;  ///< one past the last valid byte in window_
    uint64_t base_ = 0; ///< file offset of window_[0]
    bool eof_ = false;
    std::vector<TexelRef> span_;
    uint64_t frames_ = 0;
    uint64_t refs_ = 0;
    bool frame_open_ = false;
    bool done_ = false;
};

} // namespace mltc

#endif // MLTC_TRACE_TRACE_IO_HPP
