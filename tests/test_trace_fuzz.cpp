/**
 * @file
 * Robustness fuzzing for the trace reader (docs/trace_format.md):
 * truncations at every byte, bit flips, random opcode soup, and
 * hand-built corrupt spans and trailers. Every malformed input must
 * yield a clean, typed mltc::Exception naming the offending offset or
 * opcode — never a crash, an infinite loop, a silently shortened
 * trace, or a leaked file handle.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>
#include <vector>

#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mltc {
namespace {

/** Sink that just counts events (contents do not matter when fuzzing). */
class CountingSink final : public TexelAccessSink
{
  public:
    void bindTexture(TextureId) override { ++events; }
    /** A texel counts one, a quad four; pixel markers count none. */
    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        for (const TexelRef &r : refs)
            events += r.kind == TexelRef::kTexel  ? 1
                      : r.kind == TexelRef::kQuad ? 4
                                                  : 0;
    }

    uint64_t events = 0;
};

// PID-suffixed: ctest runs each test case as its own process, possibly
// in parallel, so shared fixed names would race on create/remove.
std::string
tempPath(const char *name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

/**
 * Bytes of a small valid trace: 2 frames, every ref kind (a stepped
 * and a wrapped quad, a stepped and a placed pixel marker, a texel with
 * an escaped MIP level), three spans, binds inside and between frames.
 *
 * Layout (offset: record):
 *    0: magic "MLTCTRC2"
 *    8: bind 3
 *   10: span of 5 refs (3-byte header, 17-byte payload)
 *   30: bind 4
 *   32: span of 1 ref (escaped MIP 40)
 *   39: end of frame
 *   40: bind 3
 *   42: span of 1 ref
 *   48: end of frame
 *   49: trailer (2 frames, 7 refs), 17 bytes
 */
std::vector<unsigned char>
validTraceBytes()
{
    std::string path = tempPath("fuzz_valid.bin");
    {
        TraceWriter w(path);
        w.bindTexture(3);
        w.beginPixel(10, 4);
        w.accessQuad(1, 2, 2, 3, 0);
        w.beginPixel(11, 4);
        w.accessQuad(63, 7, 0, 8, 1);
        w.access(100, 200, 5);
        w.bindTexture(4);
        w.access(7, 8, 40);
        w.endFrame();
        w.bindTexture(3);
        w.access(1, 1, 0);
        w.endFrame();
        w.close();
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    std::vector<unsigned char> bytes(
        static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(bytes.size(), 66u) << "the layout comment above is stale";
    return bytes;
}

/** The trace magic followed by hand-built @p records. */
std::vector<unsigned char>
withMagic(std::initializer_list<unsigned char> records)
{
    std::string bytes = "MLTCTRC2";
    bytes.append(records.begin(), records.end());
    return {bytes.begin(), bytes.end()};
}

void
writeBytes(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    ASSERT_EQ(std::fclose(f), 0);
}

/**
 * Replay @p bytes; the only acceptable outcomes are clean completion or
 * a typed mltc::Exception with a non-empty message.
 */
void
replayExpectingCleanOutcome(const std::vector<unsigned char> &bytes,
                            const std::string &path)
{
    writeBytes(path, bytes);
    try {
        TraceReader reader(path);
        CountingSink sink;
        reader.replayAll(sink);
    } catch (const Exception &e) {
        EXPECT_NE(e.code(), ErrorCode::None);
        EXPECT_FALSE(std::string(e.what()).empty());
    }
    // Any other exception type (or a crash/hang) fails the test.
    std::remove(path.c_str());
}

size_t
openFdCount()
{
    size_t n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        (void)entry, ++n;
    return n;
}

/** Replay @p bytes; @return the typed error it must raise. */
Exception
replayError(const std::vector<unsigned char> &bytes, const char *name)
{
    const std::string path = tempPath(name);
    writeBytes(path, bytes);
    CountingSink sink;
    try {
        TraceReader reader(path);
        reader.replayAll(sink);
    } catch (const Exception &e) {
        std::remove(path.c_str());
        return e;
    }
    std::remove(path.c_str());
    ADD_FAILURE() << "expected a typed exception";
    return Exception(ErrorCode::None, "");
}

TEST(TraceFuzz, TruncationAtEveryByteIsClean)
{
    // The whole trace replays; every strict prefix lacks the trailer,
    // so every one must fail as Truncated — a cut at a record boundary
    // included.
    const std::vector<unsigned char> bytes = validTraceBytes();
    const std::string path = tempPath("fuzz_whole.bin");
    writeBytes(path, bytes);
    {
        TraceReader reader(path);
        CountingSink sink;
        EXPECT_EQ(reader.replayAll(sink), 2u);
        EXPECT_EQ(sink.events, 3u + 2u * 4u + 3u); // binds, quads, texels
    }
    std::remove(path.c_str());
    for (size_t len = 0; len < bytes.size(); ++len) {
        const Exception e = replayError(
            {bytes.begin(), bytes.begin() + static_cast<long>(len)},
            "fuzz_trunc.bin");
        EXPECT_EQ(e.code(), ErrorCode::Truncated) << "prefix " << len;
    }
}

TEST(TraceFuzz, TruncatedAccessNamesOffset)
{
    std::vector<unsigned char> bytes = validTraceBytes();
    bytes.resize(25); // inside the payload of the span at offset 10
    const Exception e = replayError(bytes, "fuzz_offset.bin");
    EXPECT_EQ(e.code(), ErrorCode::Truncated);
    EXPECT_STREQ(e.what(), "TraceReader: truncated span at offset 10");
}

TEST(TraceFuzz, CutAtAFrameBoundaryIsNotAFrame)
{
    // A trace cut between records must not replay its partial last
    // frame as a complete one: the first frame still arrives whole, the
    // cut second frame throws instead of returning true.
    std::vector<unsigned char> bytes = validTraceBytes();
    bytes.resize(48); // drop frame 2's end marker and the trailer
    const std::string path = tempPath("fuzz_boundary.bin");
    writeBytes(path, bytes);
    TraceReader reader(path);
    CountingSink sink;
    EXPECT_TRUE(reader.replayFrame(sink));
    try {
        reader.replayFrame(sink);
        FAIL() << "expected a typed exception";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::Truncated);
        EXPECT_STREQ(e.what(),
                     "TraceReader: trace ends before its trailer at offset 48");
    }
    std::remove(path.c_str());
}

TEST(TraceFuzz, BadOpcodeNamesOpcodeAndOffset)
{
    std::vector<unsigned char> bytes = validTraceBytes();
    bytes[39] = 0x7f; // garbage in place of the first end of frame
    const Exception e = replayError(bytes, "fuzz_opcode.bin");
    EXPECT_EQ(e.code(), ErrorCode::BadOpcode);
    EXPECT_STREQ(e.what(), "TraceReader: bad opcode 127 at offset 39");
}

TEST(TraceFuzz, CorruptPayloadNamesOffsetAndFault)
{
    // Hand-built span records at offset 8: opcode 2, ref count, payload
    // length, payload. Tag byte: kind in bits 0-1, step in bit 2, MIP
    // level in bits 3-7 (31 escapes to a varint).
    const struct
    {
        std::vector<unsigned char> bytes;
        const char *what;
    } cases[] = {
        {withMagic({2, 1, 2, 0x00, 0x80}),
         "TraceReader: corrupt span at offset 8: varint overrun"},
        {withMagic({2, 1, 7, 0x00, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00}),
         "TraceReader: corrupt span at offset 8: varint too long"},
        {withMagic({2, 1, 3, 0x03, 0, 0}),
         "TraceReader: corrupt span at offset 8: unknown ref kind 3"},
        {withMagic({2, 1, 1, 0x04}),
         "TraceReader: corrupt span at offset 8: step flag on a texel ref"},
        {withMagic({2, 1, 4, 0xf8, 0x05, 0, 0}),
         "TraceReader: corrupt span at offset 8: MIP level 5 out of range"},
        {withMagic({2, 2, 3, 0x00, 0, 0}),
         "TraceReader: corrupt span at offset 8: payload ends after 1 of 2 "
         "refs"},
        {withMagic({2, 1, 4, 0x00, 0, 0, 0}),
         "TraceReader: corrupt span at offset 8: 1 payload bytes follow the "
         "last of 1 refs"},
        {withMagic({2, 0, 0}),
         "TraceReader: corrupt span at offset 8: ref count 0 outside "
         "1..4096"},
        {withMagic({2, 1, 0xa0, 0x8d, 0x06}), // length 100000
         "TraceReader: corrupt span at offset 8: payload length 100000 "
         "exceeds 98304"},
    };
    for (const auto &c : cases) {
        const Exception e = replayError(c.bytes, "fuzz_corrupt.bin");
        EXPECT_EQ(e.code(), ErrorCode::Corrupt) << c.what;
        EXPECT_STREQ(e.what(), c.what);
    }
}

TEST(TraceFuzz, DamagedTrailerIsCorrupt)
{
    const std::vector<unsigned char> valid = validTraceBytes();

    std::vector<unsigned char> count = valid;
    count[49 + 1] = 3; // the trailer claims 3 frames
    Exception e = replayError(count, "fuzz_trailer.bin");
    EXPECT_EQ(e.code(), ErrorCode::Corrupt);
    EXPECT_STREQ(e.what(), "TraceReader: corrupt trailer at offset 49: "
                           "records 3 frames / 7 refs, trace holds 2 / 7");

    std::vector<unsigned char> extra = valid;
    extra.push_back(3);
    e = replayError(extra, "fuzz_trailer.bin");
    EXPECT_EQ(e.code(), ErrorCode::Corrupt);
    EXPECT_STREQ(e.what(), "TraceReader: data after trailer at offset 66");

    // The trailer moved up into frame 2, before its end marker.
    std::vector<unsigned char> open(valid.begin(), valid.begin() + 48);
    open.insert(open.end(), valid.begin() + 49, valid.end());
    e = replayError(open, "fuzz_trailer.bin");
    EXPECT_EQ(e.code(), ErrorCode::Corrupt);
    EXPECT_STREQ(e.what(), "TraceReader: corrupt trailer at offset 48: the "
                           "last frame has no end marker");
}

TEST(TraceFuzz, VersionOneTraceIsBadMagic)
{
    // The retired MLTCTRC1 grammar (13-byte texel records) is not read.
    const std::vector<unsigned char> v1 = {'M', 'L', 'T', 'C', 'T', 'R',
                                           'C', '1', 1,   3,   0,   0,
                                           0,   3};
    const Exception e = replayError(v1, "fuzz_v1.bin");
    EXPECT_EQ(e.code(), ErrorCode::BadMagic);
}

TEST(TraceFuzz, BitFlipAtEveryByteIsClean)
{
    const std::vector<unsigned char> bytes = validTraceBytes();
    const std::string path = tempPath("fuzz_flip.bin");
    for (size_t i = 0; i < bytes.size(); ++i)
        for (int mask : {0x01, 0x80, 0xff}) {
            std::vector<unsigned char> mutated = bytes;
            mutated[i] = static_cast<unsigned char>(mutated[i] ^ mask);
            replayExpectingCleanOutcome(mutated, path);
        }
}

TEST(TraceFuzz, FlippedMagicIsBadMagic)
{
    std::vector<unsigned char> bytes = validTraceBytes();
    bytes[0] ^= 0xff;
    const std::string path = tempPath("fuzz_magic.bin");
    writeBytes(path, bytes);
    try {
        TraceReader reader(path);
        FAIL() << "expected a typed exception";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::BadMagic);
    }
    std::remove(path.c_str());
}

TEST(TraceFuzz, RandomOpcodeSoupTerminatesCleanly)
{
    const std::vector<unsigned char> valid = validTraceBytes();
    const std::string path = tempPath("fuzz_soup.bin");
    Rng rng(0xf00d);
    for (int round = 0; round < 200; ++round) {
        std::vector<unsigned char> bytes(valid.begin(), valid.begin() + 8);
        const size_t body = rng.below(96);
        for (size_t i = 0; i < body; ++i)
            bytes.push_back(static_cast<unsigned char>(rng.below(256)));
        replayExpectingCleanOutcome(bytes, path);
    }
}

TEST(TraceFuzz, FailedConstructionLeaksNoHandles)
{
    // A throwing constructor never runs the destructor; the FILE* must
    // be closed on every error path or 200 rounds would leak 200 fds.
    std::vector<unsigned char> bad = validTraceBytes();
    bad[0] ^= 0xff;
    const std::string bad_magic = tempPath("fuzz_leak_magic.bin");
    writeBytes(bad_magic, bad);
    const std::string short_hdr = tempPath("fuzz_leak_hdr.bin");
    writeBytes(short_hdr, {'M', 'L', 'T'});

    const size_t before = openFdCount();
    for (int i = 0; i < 200; ++i) {
        EXPECT_THROW(TraceReader r(bad_magic), Exception);
        EXPECT_THROW(TraceReader r(short_hdr), Exception);
    }
    EXPECT_EQ(openFdCount(), before);
    std::remove(bad_magic.c_str());
    std::remove(short_hdr.c_str());
}

TEST(TraceFuzz, WriterFailsLoudlyOnFullDevice)
{
    // /dev/full accepts the open but fails every flush: either a write
    // mid-stream or the final close must throw, never silently truncate.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    EXPECT_THROW(
        {
            TraceWriter w("/dev/full");
            for (uint32_t i = 0; i < 4096; ++i)
                w.access(i, i, 0);
            w.close();
        },
        Exception);
}

TEST(TraceFuzz, WriterEntryPointsAfterCloseThrowIo)
{
    const std::string path = tempPath("fuzz_closed.bin");
    TraceWriter w(path);
    w.close();
    const TexelRef one[] = {TexelRef::texel(1, 1, 0)};
    auto expectIo = [](auto &&call) {
        try {
            call();
            ADD_FAILURE() << "expected a typed exception";
        } catch (const Exception &e) {
            EXPECT_EQ(e.code(), ErrorCode::Io);
            EXPECT_STREQ(e.what(), "TraceWriter: write after close");
        }
    };
    expectIo([&] { w.bindTexture(1); });
    expectIo([&] { w.beginPixel(1, 1); });
    expectIo([&] { w.access(1, 1, 0); });
    expectIo([&] { w.accessQuad(1, 1, 2, 2, 0); });
    expectIo([&] { w.accessBatch(one); });
    expectIo([&] { w.endFrame(); });
    w.close(); // closing twice stays a no-op
    std::remove(path.c_str());
}

TEST(TraceFuzz, LegacyCatchSitesStillWork)
{
    // mltc::Exception derives std::runtime_error, so pre-taxonomy
    // callers that catch runtime_error keep working.
    const std::string path = tempPath("fuzz_legacy.bin");
    writeBytes(path, {'X'});
    EXPECT_THROW(TraceReader r(path), std::runtime_error);
    std::remove(path.c_str());
}

} // namespace
} // namespace mltc
