/**
 * @file
 * Robustness fuzzing for the trace reader: truncations at every byte,
 * bit flips, random opcode soup. Every malformed input must yield a
 * clean, typed mltc::Exception naming the offending offset or opcode —
 * never a crash, an infinite loop, or a leaked file handle.
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
    void access(uint32_t, uint32_t, uint32_t) override { ++events; }
    uint64_t events = 0;
};

// PID-suffixed: ctest runs each test case as its own process, possibly
// in parallel, so shared fixed names would race on create/remove.
std::string
tempPath(const char *name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

/** Bytes of a small valid trace (2 frames, a few events). */
std::vector<unsigned char>
validTraceBytes()
{
    std::string path = tempPath("fuzz_valid.bin");
    {
        TraceWriter w(path);
        w.bindTexture(3);
        w.access(1, 2, 0);
        w.access(100, 200, 5);
        w.endFrame();
        w.bindTexture(4);
        w.access(7, 8, 1);
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
    return bytes;
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

TEST(TraceFuzz, TruncationAtEveryByteIsClean)
{
    const std::vector<unsigned char> bytes = validTraceBytes();
    const std::string path = tempPath("fuzz_trunc.bin");
    for (size_t len = 0; len < bytes.size(); ++len)
        replayExpectingCleanOutcome(
            {bytes.begin(), bytes.begin() + static_cast<long>(len)}, path);
}

TEST(TraceFuzz, TruncatedAccessNamesOffset)
{
    std::vector<unsigned char> bytes = validTraceBytes();
    bytes.resize(bytes.size() - 2); // chop into the last access payload
    const std::string path = tempPath("fuzz_offset.bin");
    writeBytes(path, bytes);
    TraceReader reader(path);
    CountingSink sink;
    try {
        reader.replayAll(sink);
        FAIL() << "expected a typed exception";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::Truncated);
        // 8-byte header, bind (5), two accesses (13 each), end-frame,
        // bind: the last access record's opcode byte sits at 45.
        EXPECT_STREQ(e.what(), "TraceReader: truncated access at offset 45");
    }
    std::remove(path.c_str());
}

TEST(TraceFuzz, BadOpcodeNamesOpcodeAndOffset)
{
    std::vector<unsigned char> bytes = validTraceBytes();
    bytes.push_back(0x7f); // garbage opcode after the final end-frame
    const std::string path = tempPath("fuzz_opcode.bin");
    writeBytes(path, bytes);
    TraceReader reader(path);
    CountingSink sink;
    try {
        reader.replayAll(sink);
        FAIL() << "expected a typed exception";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::BadOpcode);
        // The appended byte follows the 59-byte valid trace.
        EXPECT_STREQ(e.what(), "TraceReader: bad opcode 127 at offset 59");
    }
    std::remove(path.c_str());
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
