/**
 * @file
 * Binary texel-access trace recording and replay.
 *
 * Lets a workload be rasterized once and the resulting access stream be
 * replayed into any number of cache configurations later (trace-driven
 * simulation, as the paper's methodology is). Traces of full animations
 * are large, so this is primarily used for short test clips and for
 * decoupling unit tests from the rasterizer.
 */
#ifndef MLTC_TRACE_TRACE_IO_HPP
#define MLTC_TRACE_TRACE_IO_HPP

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "raster/access_sink.hpp"

namespace mltc {

/**
 * Sink that serialises the access stream to a file.
 *
 * Every write is checked: a full disk or a vanished file throws a typed
 * mltc::Exception (ErrorCode::Io) at the offending event rather than
 * silently producing a truncated trace. Call close() before relying on
 * the file — it reports fclose failure; the destructor only closes
 * best-effort.
 */
class TraceWriter final : public TexelAccessSink
{
  public:
    /** Open @p path; throws mltc::Exception (Io) on failure. */
    explicit TraceWriter(const std::string &path);
    ~TraceWriter() override;

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void bindTexture(TextureId tid) override;
    void access(uint32_t x, uint32_t y, uint32_t mip) override;

    /** Mark a frame boundary. */
    void endFrame();

    /**
     * Flush and close; throws mltc::Exception (Io) when fclose reports
     * failure. The destructor closes silently instead.
     */
    void close();

  private:
    std::FILE *file_ = nullptr;
};

/**
 * Replays a recorded trace into a sink.
 *
 * Malformed input (truncated records, unknown opcodes, bad header) is
 * rejected with a typed mltc::Exception naming the offending offset or
 * opcode — never a crash, hang or silent misparse. mltc::Exception
 * derives std::runtime_error, so existing catch sites keep working.
 */
class TraceReader
{
  public:
    /**
     * Open @p path; throws mltc::Exception (Io / Truncated / BadMagic)
     * on failure, without leaking the handle.
     */
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /**
     * Replay events into @p sink until the next frame boundary or end of
     * trace. Runs of access ops between binds reach the sink only
     * through accessBatch(), with bindTexture() between the spans.
     * @return true when a frame was delivered, false at end of trace.
     */
    bool replayFrame(TexelAccessSink &sink);

    /** Replay the whole trace; @return number of frames delivered. */
    uint64_t replayAll(TexelAccessSink &sink);

  private:
    /** Max refs buffered per accessBatch() call. */
    static constexpr size_t kReplayBatchCap = 4096;

    std::FILE *file_ = nullptr;
    /** File offset of the next record (error messages only). */
    uint64_t pos_ = 0;
};

} // namespace mltc

#endif // MLTC_TRACE_TRACE_IO_HPP
