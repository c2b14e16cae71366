#include "trace/trace_io.hpp"

#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace mltc {

namespace {

constexpr char kMagic[8] = {'M', 'L', 'T', 'C', 'T', 'R', 'C', '1'};

enum Opcode : uint8_t { kBind = 1, kAccess = 2, kEndFrame = 3 };

void
writeU32(std::FILE *f, uint32_t v)
{
    if (std::fwrite(&v, sizeof(v), 1, f) != 1)
        throw Exception(ErrorCode::Io, "TraceWriter: short write");
}

void
writeOp(std::FILE *f, uint8_t op)
{
    if (std::fwrite(&op, 1, 1, f) != 1)
        throw Exception(ErrorCode::Io, "TraceWriter: short write");
}

bool
readU32(std::FILE *f, uint32_t &v)
{
    return std::fread(&v, sizeof(v), 1, f) == 1;
}

} // namespace

TraceWriter::TraceWriter(const std::string &path)
    : file_(std::fopen(path.c_str(), "wb"))
{
    if (!file_)
        throw Exception(ErrorCode::Io, "TraceWriter: cannot open " + path);
    if (std::fwrite(kMagic, sizeof(kMagic), 1, file_) != 1) {
        std::fclose(file_);
        file_ = nullptr;
        throw Exception(ErrorCode::Io,
                        "TraceWriter: header write failed for " + path);
    }
}

TraceWriter::~TraceWriter()
{
    // Best-effort: destructors must not throw. Call close() explicitly
    // to learn about flush failures (truncated traces fail loudly).
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

void
TraceWriter::close()
{
    if (!file_)
        return;
    std::FILE *f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0)
        throw Exception(ErrorCode::Io,
                        "TraceWriter: close failed (trace truncated?)");
}

void
TraceWriter::bindTexture(TextureId tid)
{
    writeOp(file_, kBind);
    writeU32(file_, tid);
}

void
TraceWriter::access(uint32_t x, uint32_t y, uint32_t mip)
{
    writeOp(file_, kAccess);
    writeU32(file_, x);
    writeU32(file_, y);
    writeU32(file_, mip);
}

void
TraceWriter::endFrame()
{
    writeOp(file_, kEndFrame);
}

TraceReader::TraceReader(const std::string &path)
    : file_(std::fopen(path.c_str(), "rb"))
{
    if (!file_)
        throw Exception(ErrorCode::Io, "TraceReader: cannot open " + path);
    char magic[8];
    // Close before throwing: a throwing constructor never runs the
    // destructor, so the handle would leak otherwise.
    if (std::fread(magic, sizeof(magic), 1, file_) != 1) {
        std::fclose(file_);
        file_ = nullptr;
        throw Exception(ErrorCode::Truncated,
                        "TraceReader: truncated header in " + path);
    }
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        std::fclose(file_);
        file_ = nullptr;
        throw Exception(ErrorCode::BadMagic,
                        "TraceReader: bad magic in " + path);
    }
    pos_ = sizeof(kMagic);
}

TraceReader::~TraceReader()
{
    if (file_)
        std::fclose(file_);
}

bool
TraceReader::replayFrame(TexelAccessSink &sink)
{
    // Runs of kAccess ops are buffered into one accessBatch() call; the
    // buffer is drained before every bind (batches never span a texture
    // binding) and at end of frame.
    std::vector<TexelRef> batch;
    batch.reserve(kReplayBatchCap);
    auto flush = [&] {
        if (!batch.empty()) {
            sink.accessBatch(batch);
            batch.clear();
        }
    };

    bool any = false;
    uint8_t op = 0;
    while (std::fread(&op, 1, 1, file_) == 1) {
        // pos_ still names this record's opcode byte on every throw.
        any = true;
        switch (op) {
          case kBind: {
            uint32_t tid;
            if (!readU32(file_, tid))
                throw Exception(ErrorCode::Truncated,
                                "TraceReader: truncated bind at offset " +
                                    std::to_string(pos_));
            pos_ += 1 + sizeof(tid);
            flush();
            sink.bindTexture(tid);
            break;
          }
          case kAccess: {
            uint32_t x, y, mip;
            if (!readU32(file_, x) || !readU32(file_, y) ||
                !readU32(file_, mip))
                throw Exception(ErrorCode::Truncated,
                                "TraceReader: truncated access at offset " +
                                    std::to_string(pos_));
            pos_ += 1 + 3 * sizeof(uint32_t);
            batch.push_back(TexelRef::texel(x, y, mip));
            if (batch.size() >= kReplayBatchCap)
                flush();
            break;
          }
          case kEndFrame:
            pos_ += 1;
            flush();
            return true;
          default:
            throw Exception(ErrorCode::BadOpcode,
                            "TraceReader: bad opcode " +
                                std::to_string(op) + " at offset " +
                                std::to_string(pos_));
        }
    }
    flush();
    return any;
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
