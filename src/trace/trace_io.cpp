#include "trace/trace_io.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace mltc {

namespace {

constexpr char kMagic[8] = {'M', 'L', 'T', 'C', 'T', 'R', 'C', '2'};

enum Opcode : uint8_t { kBind = 1, kSpan = 2, kEndFrame = 3, kTrailer = 4 };

/** Refs per span record at most. */
constexpr uint32_t kSpanCap = 4096;

// Ref tag byte: bits 0-1 kind, bit 2 the step shortcut, bits 3-7 the
// MIP level; level 31 is an escape, followed by the level as a varint.
// The step bit says a quad's neighbours are x1 = x0 + 1, y1 = y0 + 1,
// or a pixel marker is the next pixel of the previous marker's row.
constexpr uint8_t kKindMask = 0x03;
constexpr uint8_t kStep = 0x04;
constexpr unsigned kMipShift = 3;
constexpr uint32_t kMipEscape = 31;

/** Longest ref: tag, escaped MIP, x0, y0, x1, y1 deltas. */
constexpr size_t kMaxRefBytes = 1 + 3 + 4 * 5;
constexpr size_t kMaxSpanBytes = kSpanCap * kMaxRefBytes;
/** Opcode plus two header varints: the longest record header. */
constexpr size_t kMaxSpanHeader = 1 + 5 + 5;
constexpr size_t kTrailerBytes = 1 + 8 + 8;
constexpr size_t kWindowBytes = size_t{1} << 18;
/**
 * Zeroed bytes after the window. A ref that starts inside its payload
 * reads at most 1 + 5 * 5 bytes (tag, five overlong varints), so its
 * decoder may read past the data but never past the padding.
 */
constexpr size_t kWindowPad = 32;

uint32_t
zigzag(uint32_t delta)
{
    return (delta << 1) ^
           static_cast<uint32_t>(static_cast<int32_t>(delta) >> 31);
}

uint32_t
unzigzag(uint32_t v)
{
    return (v >> 1) ^ (0u - (v & 1));
}

uint8_t *
putVarint(uint8_t *p, uint32_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<uint8_t>(v | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<uint8_t>(v);
    return p;
}

/**
 * Read one varint without a bounds check: callers compare the cursor
 * with the end of the data afterwards, and the read window is padded
 * so a read that runs past it stays inside the allocation.
 * @return false when the varint is longer than five bytes.
 */
inline bool
readVarint(const uint8_t *&p, uint32_t &v)
{
    uint32_t b = *p++;
    v = b;
    if (b < 0x80) [[likely]]
        return true;
    v &= 0x7f;
    for (unsigned shift = 7;; shift += 7) {
        b = *p++;
        // The fifth byte carries the top 4 bits and ends the varint.
        if (shift == 28 && b > 0x0f)
            return false;
        v |= (b & 0x7f) << shift;
        if (b < 0x80)
            return true;
    }
}

/** Read two varints; one test covers the common one-byte pair. */
inline bool
readPair(const uint8_t *&p, uint32_t &a, uint32_t &b)
{
    if (((p[0] | p[1]) & 0x80) == 0) [[likely]] {
        a = p[0];
        b = p[1];
        p += 2;
        return true;
    }
    return readVarint(p, a) & readVarint(p, b);
}

[[noreturn]] void
fail(ErrorCode code, const std::string &what, uint64_t at,
     const std::string &detail = {})
{
    std::string msg =
        "TraceReader: " + what + " at offset " + std::to_string(at);
    if (!detail.empty())
        msg += ": " + detail;
    throw Exception(code, msg);
}

[[noreturn]] void
corruptSpan(uint64_t at, const std::string &detail)
{
    fail(ErrorCode::Corrupt, "corrupt span", at, detail);
}

void
putU64(uint8_t *p, uint64_t v)
{
    std::memcpy(p, &v, sizeof(v)); // the format is little-endian only
}

uint64_t
getU64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/**
 * Delta predictor of one span: a ref's origin is stored as a difference
 * from the previous origin in the same slot — one slot per MIP level
 * (mod 16) and one for pixel markers. It starts at zero in every span,
 * so each span decodes on its own.
 */
struct SpanPredictor
{
    static constexpr size_t kPixelSlot = 16;

    static size_t
    slot(uint32_t kind, uint32_t mip)
    {
        return kind == TexelRef::kPixel ? kPixelSlot : (mip & 15);
    }

    uint32_t x[kPixelSlot + 1] = {};
    uint32_t y[kPixelSlot + 1] = {};
};

/** Encode @p refs as a span payload at @p p; @return its end. */
uint8_t *
encodeSpan(std::span<const TexelRef> refs, uint8_t *p)
{
    SpanPredictor pred;
    for (const TexelRef &r : refs) {
        // Kinds past kPixel are pixel markers to every sink; store them so.
        const uint32_t kind = std::min<uint32_t>(r.kind, TexelRef::kPixel);
        const uint32_t mip = r.mip;
        const size_t slot = SpanPredictor::slot(kind, mip);
        const bool step =
            kind == TexelRef::kQuad
                ? r.x1 == r.x0 + 1 && r.y1 == r.y0 + 1
                : kind == TexelRef::kPixel && r.x0 == pred.x[slot] + 1 &&
                      r.y0 == pred.y[slot];

        *p++ = static_cast<uint8_t>(kind | (step ? kStep : 0) |
                                    std::min(mip, kMipEscape) << kMipShift);
        if (mip >= kMipEscape)
            p = putVarint(p, mip);
        if (!(step && kind == TexelRef::kPixel)) {
            p = putVarint(p, zigzag(r.x0 - pred.x[slot]));
            p = putVarint(p, zigzag(r.y0 - pred.y[slot]));
        }
        pred.x[slot] = r.x0;
        pred.y[slot] = r.y0;
        if (kind == TexelRef::kQuad && !step) {
            p = putVarint(p, zigzag(r.x1 - r.x0));
            p = putVarint(p, zigzag(r.y1 - r.y0));
        }
    }
    return p;
}

/**
 * Decode @p count refs from the payload [p, end) into @p out. A ref
 * that starts inside the payload may read past @p end (see kWindowPad);
 * one that ends past it is reported as a varint overrun.
 * @return an empty string, or what is wrong with the payload.
 */
std::string
decodeSpan(const uint8_t *p, const uint8_t *const end, uint32_t count,
           TexelRef *out)
{
    auto varintFault = [end](const uint8_t *at) {
        return std::string(at > end ? "varint overrun" : "varint too long");
    };
    SpanPredictor pred;
    for (uint32_t i = 0; i < count; ++i) {
        if (p >= end) [[unlikely]]
            return "payload ends after " + std::to_string(i) + " of " +
                   std::to_string(count) + " refs";
        const uint8_t tag = *p++;
        const uint16_t kind = tag & kKindMask;
        const bool step = (tag & kStep) != 0;
        if (kind > TexelRef::kPixel) [[unlikely]]
            return "unknown ref kind " + std::to_string(kind);
        if (step && kind == TexelRef::kTexel) [[unlikely]]
            return "step flag on a texel ref";
        uint32_t mip = tag >> kMipShift;
        if (mip == kMipEscape) [[unlikely]] {
            if (!readVarint(p, mip) || p > end)
                return varintFault(p);
            if (mip < kMipEscape || mip > 0xffff)
                return "MIP level " + std::to_string(mip) + " out of range";
        }
        // The defaults are the zigzag codes of the step shortcuts: a
        // stepped pixel marker moves (+1, 0), a stepped quad's
        // neighbours sit at (+1, +1).
        uint32_t dx = 2, dy = 0, ex = 2, ey = 2;
        bool ok = true;
        if (!step || kind != TexelRef::kPixel)
            ok = readPair(p, dx, dy);
        if (!step && kind == TexelRef::kQuad)
            ok &= readPair(p, ex, ey);
        if (!ok || p > end) [[unlikely]]
            return varintFault(p);

        const size_t slot = SpanPredictor::slot(kind, mip);
        TexelRef &r = out[i];
        r.x0 = pred.x[slot] += unzigzag(dx);
        r.y0 = pred.y[slot] += unzigzag(dy);
        const bool quad = kind == TexelRef::kQuad;
        r.x1 = quad ? r.x0 + unzigzag(ex) : 0;
        r.y1 = quad ? r.y0 + unzigzag(ey) : 0;
        r.mip = static_cast<uint16_t>(mip);
        r.kind = kind;
    }
    if (p != end)
        return std::to_string(end - p) +
               " payload bytes follow the last of " + std::to_string(count) +
               " refs";
    return {};
}

} // namespace

// --- TraceWriter ----------------------------------------------------------

TraceWriter::TraceWriter(const std::string &path)
    : file_(std::fopen(path.c_str(), "wb")), payload_(kMaxSpanBytes)
{
    if (!file_)
        throw Exception(ErrorCode::Io, "TraceWriter: cannot open " + path);
    if (std::fwrite(kMagic, sizeof(kMagic), 1, file_.get()) != 1)
        throw Exception(ErrorCode::Io,
                        "TraceWriter: header write failed for " + path);
    span_.reserve(kSpanCap);
}

void
TraceWriter::requireOpen() const
{
    if (!file_) [[unlikely]]
        throw Exception(ErrorCode::Io, "TraceWriter: write after close");
}

void
TraceWriter::put(const void *data, size_t size)
{
    if (std::fwrite(data, 1, size, file_.get()) != size)
        throw Exception(ErrorCode::Io, "TraceWriter: short write");
}

void
TraceWriter::flushSpan()
{
    if (span_.empty())
        return;
    uint8_t *const payload = payload_.data();
    const size_t len =
        static_cast<size_t>(encodeSpan(span_, payload) - payload);
    uint8_t header[kMaxSpanHeader];
    uint8_t *p = header;
    *p++ = kSpan;
    p = putVarint(p, static_cast<uint32_t>(span_.size()));
    p = putVarint(p, static_cast<uint32_t>(len));
    put(header, static_cast<size_t>(p - header));
    put(payload, len);
    refs_ += span_.size();
    span_.clear();
}

void
TraceWriter::bindTexture(TextureId tid)
{
    requireOpen();
    flushSpan();
    uint8_t rec[1 + 5];
    rec[0] = kBind;
    put(rec, static_cast<size_t>(putVarint(rec + 1, tid) - rec));
    frame_open_ = true;
}

void
TraceWriter::accessBatch(std::span<const TexelRef> refs)
{
    requireOpen();
    for (const TexelRef &r : refs) {
        span_.push_back(r);
        frame_open_ = true;
        if (span_.size() == kSpanCap)
            flushSpan();
    }
}

void
TraceWriter::endFrame()
{
    requireOpen();
    flushSpan();
    const uint8_t op = kEndFrame;
    put(&op, 1);
    ++frames_;
    frame_open_ = false;
}

void
TraceWriter::close()
{
    if (!file_)
        return;
    if (frame_open_)
        endFrame();
    uint8_t trailer[kTrailerBytes];
    trailer[0] = kTrailer;
    putU64(trailer + 1, frames_);
    putU64(trailer + 9, refs_);
    put(trailer, sizeof(trailer));
    if (std::fclose(file_.release()) != 0)
        throw Exception(ErrorCode::Io,
                        "TraceWriter: close failed (trace truncated?)");
}

// --- TraceReader ----------------------------------------------------------

TraceReader::TraceReader(const std::string &path)
    : file_(std::fopen(path.c_str(), "rb")),
      window_(std::make_unique<uint8_t[]>(kWindowBytes + kWindowPad)),
      span_(kSpanCap)
{
    // The handle is a member, so a throw below still closes it.
    if (!file_)
        throw Exception(ErrorCode::Io, "TraceReader: cannot open " + path);
    if (fill(sizeof(kMagic)) < sizeof(kMagic))
        throw Exception(ErrorCode::Truncated,
                        "TraceReader: truncated header in " + path);
    if (std::memcmp(window_.get(), kMagic, sizeof(kMagic)) != 0)
        throw Exception(ErrorCode::BadMagic,
                        "TraceReader: bad magic in " + path);
    head_ = sizeof(kMagic);
}

size_t
TraceReader::fill(size_t n)
{
    if (tail_ - head_ >= n || eof_)
        return tail_ - head_;
    std::memmove(window_.get(), window_.get() + head_, tail_ - head_);
    base_ += head_;
    tail_ -= head_;
    head_ = 0;
    const size_t want = kWindowBytes - tail_;
    const size_t got =
        std::fread(window_.get() + tail_, 1, want, file_.get());
    tail_ += got;
    if (got < want) {
        if (std::ferror(file_.get()))
            throw Exception(ErrorCode::Io,
                            "TraceReader: read failed at offset " +
                                std::to_string(base_ + tail_));
        eof_ = true;
    }
    return tail_;
}

void
TraceReader::readBind(uint64_t at, TexelAccessSink &sink)
{
    const size_t avail = fill(1 + 5);
    const uint8_t *const rec = window_.get() + head_;
    const uint8_t *p = rec + 1;
    uint32_t tid = 0;
    const bool ok = readVarint(p, tid);
    if (p > rec + avail)
        fail(ErrorCode::Truncated, "truncated bind", at);
    if (!ok)
        fail(ErrorCode::Corrupt, "corrupt bind", at, "varint too long");
    head_ += static_cast<size_t>(p - rec);
    sink.bindTexture(tid);
}

void
TraceReader::readSpan(uint64_t at, TexelAccessSink &sink)
{
    // Header: opcode, ref count, payload length.
    const size_t avail = fill(kMaxSpanHeader);
    const uint8_t *const rec = window_.get() + head_;
    const uint8_t *p = rec + 1;
    uint32_t count = 0, len = 0;
    const bool ok = readVarint(p, count) && readVarint(p, len);
    if (p > rec + avail)
        fail(ErrorCode::Truncated, "truncated span", at);
    if (!ok)
        corruptSpan(at, "varint too long in header");
    if (count == 0 || count > kSpanCap)
        corruptSpan(at, "ref count " + std::to_string(count) +
                            " outside 1.." + std::to_string(kSpanCap));
    if (len > kMaxSpanBytes)
        corruptSpan(at, "payload length " + std::to_string(len) +
                            " exceeds " + std::to_string(kMaxSpanBytes));
    const size_t header = static_cast<size_t>(p - rec);
    if (fill(header + len) < header + len)
        fail(ErrorCode::Truncated, "truncated span", at);

    // fill() may have moved the window: re-derive the payload bounds.
    const uint8_t *const payload = window_.get() + head_ + header;
    const std::string fault =
        decodeSpan(payload, payload + len, count, span_.data());
    if (!fault.empty())
        corruptSpan(at, fault);
    head_ += header + len;
    refs_ += count;
    sink.accessBatch(std::span<const TexelRef>(span_.data(), count));
}

void
TraceReader::readTrailer(uint64_t at)
{
    if (fill(kTrailerBytes) < kTrailerBytes)
        fail(ErrorCode::Truncated, "truncated trailer", at);
    if (frame_open_)
        fail(ErrorCode::Corrupt, "corrupt trailer", at,
             "the last frame has no end marker");
    const uint8_t *rec = window_.get() + head_;
    const uint64_t frames = getU64(rec + 1);
    const uint64_t refs = getU64(rec + 9);
    if (frames != frames_ || refs != refs_)
        fail(ErrorCode::Corrupt, "corrupt trailer", at,
             "records " + std::to_string(frames) + " frames / " +
                 std::to_string(refs) + " refs, trace holds " +
                 std::to_string(frames_) + " / " + std::to_string(refs_));
    head_ += kTrailerBytes;
    if (fill(1) != 0)
        fail(ErrorCode::Corrupt, "data after trailer", base_ + head_);
    done_ = true;
}

bool
TraceReader::replayFrame(TexelAccessSink &sink)
{
    while (!done_) {
        // `at` names the record's opcode byte in every error.
        const uint64_t at = base_ + head_;
        if (fill(1) == 0)
            fail(ErrorCode::Truncated, "trace ends before its trailer", at);
        const uint8_t op = window_[head_];
        switch (op) {
          case kBind:
            readBind(at, sink);
            frame_open_ = true;
            break;
          case kSpan:
            readSpan(at, sink);
            frame_open_ = true;
            break;
          case kEndFrame:
            ++head_;
            ++frames_;
            frame_open_ = false;
            return true;
          case kTrailer:
            readTrailer(at);
            break;
          default:
            fail(ErrorCode::BadOpcode, "bad opcode " + std::to_string(op), at);
        }
    }
    return false;
}

uint64_t
TraceReader::replayAll(TexelAccessSink &sink)
{
    uint64_t frames = 0;
    while (replayFrame(sink))
        ++frames;
    return frames;
}

} // namespace mltc
