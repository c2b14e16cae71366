/**
 * @file
 * Robustness fuzzing for the snapshot format: truncation at every byte,
 * single-bit flips over the whole image, version skew, CRC corruption,
 * hostile length fields and out-of-range resume steps. Every malformed
 * snapshot must yield a clean, typed mltc::Exception — never a crash, a
 * hang, an allocation blow-up or silently-loaded garbage.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/cache_sim.hpp"
#include "sim/multi_config_runner.hpp"
#include "sim/multi_stream_runner.hpp"
#include "sim/resilience.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/serializer.hpp"
#include "workload/village.hpp"

namespace mltc {
namespace {

// PID-suffixed: ctest runs each test case as its own process, possibly
// in parallel, so shared fixed names would race on create/remove.
std::string
tempPath(const char *name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

std::vector<uint8_t>
fileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::fseek(f, 0, SEEK_END);
    std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
}

/** Image of a small snapshot exercising every writer primitive. */
std::vector<uint8_t>
validSnapshotBytes()
{
    const std::string path = tempPath("fuzz_snapshot.bin");
    SnapshotWriter w(path);
    w.section(snapTag("TST "));
    w.u8(7);
    w.u32(0x12345678u);
    w.u64(0xdeadbeefcafef00dull);
    w.f64(3.5);
    w.str("hello snapshot");
    w.u8Vec({1, 2, 3});
    w.u32Vec({10, 20, 30, 40});
    w.u64Vec({100, 200});
    w.finish();
    std::vector<uint8_t> bytes = fileBytes(path);
    std::remove(path.c_str());
    return bytes;
}

/** Fully consume a valid snapshot image; used to prove the baseline. */
void
readAll(SnapshotReader &r)
{
    r.expectSection(snapTag("TST "), "fuzz");
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_EQ(r.u32(), 0x12345678u);
    EXPECT_EQ(r.u64(), 0xdeadbeefcafef00dull);
    EXPECT_DOUBLE_EQ(r.f64(), 3.5);
    EXPECT_EQ(r.str(), "hello snapshot");
    std::vector<uint8_t> v8;
    r.u8Vec(v8);
    EXPECT_EQ(v8, (std::vector<uint8_t>{1, 2, 3}));
    std::vector<uint32_t> v32;
    r.u32Vec(v32);
    EXPECT_EQ(v32, (std::vector<uint32_t>{10, 20, 30, 40}));
    std::vector<uint64_t> v64;
    r.u64Vec(v64);
    EXPECT_EQ(v64, (std::vector<uint64_t>{100, 200}));
    r.expectEnd();
}

TEST(SnapshotFuzz, ValidImageRoundTrips)
{
    std::vector<uint8_t> bytes = validSnapshotBytes();
    SnapshotReader r(bytes.data(), bytes.size(), "valid");
    readAll(r);
}

TEST(SnapshotFuzz, TruncationAtEveryByteThrowsTyped)
{
    std::vector<uint8_t> bytes = validSnapshotBytes();
    for (size_t n = 0; n < bytes.size(); ++n) {
        try {
            SnapshotReader r(bytes.data(), n, "truncated");
            // Header happened to validate a shorter payload? Impossible:
            // the length field covers the whole payload, so every
            // truncation must throw in the constructor.
            FAIL() << "truncation to " << n << " bytes was accepted";
        } catch (const Exception &e) {
            EXPECT_TRUE(e.code() == ErrorCode::Truncated ||
                        e.code() == ErrorCode::BadMagic ||
                        e.code() == ErrorCode::VersionMismatch ||
                        e.code() == ErrorCode::Corrupt)
                << "truncation to " << n << " bytes: " << e.what();
        }
    }
}

TEST(SnapshotFuzz, EverySingleBitFlipIsDetected)
{
    const std::vector<uint8_t> bytes = validSnapshotBytes();
    // CRC32 detects all single-bit payload errors; header fields are
    // each individually validated. So EVERY single-bit flip anywhere in
    // the image must throw — reading flipped data is never acceptable.
    for (size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> mutant = bytes;
            mutant[i] = static_cast<uint8_t>(mutant[i] ^ (1u << bit));
            try {
                SnapshotReader r(mutant.data(), mutant.size(), "bitflip");
                readAll(r);
                FAIL() << "flip of byte " << i << " bit " << bit
                       << " went undetected";
            } catch (const Exception &e) {
                EXPECT_NE(e.code(), ErrorCode::None)
                    << "byte " << i << " bit " << bit;
            }
        }
    }
}

TEST(SnapshotFuzz, VersionSkewNamesVersions)
{
    std::vector<uint8_t> bytes = validSnapshotBytes();
    // Layout: magic[8], version u32 — write an incompatible version and
    // patch nothing else; the reader must refuse before any CRC work.
    const uint32_t bad_version = kSnapshotVersion + 1;
    std::memcpy(bytes.data() + 8, &bad_version, 4);
    try {
        SnapshotReader r(bytes.data(), bytes.size(), "skew");
        FAIL() << "future version accepted";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::VersionMismatch);
    }
}

TEST(SnapshotFuzz, BadMagicRejected)
{
    std::vector<uint8_t> bytes = validSnapshotBytes();
    bytes[0] = 'X';
    try {
        SnapshotReader r(bytes.data(), bytes.size(), "magic");
        FAIL() << "bad magic accepted";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::BadMagic);
    }
}

TEST(SnapshotFuzz, HostileVectorLengthDoesNotAllocate)
{
    // A snapshot whose payload claims a vector of ~2^61 elements: the
    // reader must bounds-check the count against the remaining payload
    // *before* resizing, so this throws instead of tripping bad_alloc
    // (or worse, a multiplication overflow that "fits").
    const std::string path = tempPath("fuzz_hostile_len.bin");
    SnapshotWriter w(path);
    w.u64(0x2000000000000000ull); // vector length prefix
    w.finish();
    std::vector<uint8_t> bytes = fileBytes(path);
    std::remove(path.c_str());

    SnapshotReader r(bytes.data(), bytes.size(), "hostile");
    std::vector<uint64_t> out;
    try {
        r.u64Vec(out);
        FAIL() << "hostile length accepted";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::Truncated);
    }
    EXPECT_TRUE(out.empty());
}

TEST(SnapshotFuzz, ReadPastEndThrowsTruncated)
{
    const std::string path = tempPath("fuzz_short.bin");
    SnapshotWriter w(path);
    w.u32(5);
    w.finish();
    std::vector<uint8_t> bytes = fileBytes(path);
    std::remove(path.c_str());

    SnapshotReader r(bytes.data(), bytes.size(), "short");
    EXPECT_EQ(r.u32(), 5u);
    EXPECT_THROW(r.u64(), Exception);
}

TEST(SnapshotFuzz, LeftoverPayloadFailsExpectEnd)
{
    const std::string path = tempPath("fuzz_leftover.bin");
    SnapshotWriter w(path);
    w.u32(1);
    w.u32(2);
    w.finish();
    std::vector<uint8_t> bytes = fileBytes(path);
    std::remove(path.c_str());

    SnapshotReader r(bytes.data(), bytes.size(), "leftover");
    EXPECT_EQ(r.u32(), 1u);
    try {
        r.expectEnd();
        FAIL() << "leftover payload accepted";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::Corrupt);
    }
}

TEST(SnapshotFuzz, WrongSectionTagNamesTheStructure)
{
    const std::string path = tempPath("fuzz_section.bin");
    SnapshotWriter w(path);
    w.section(snapTag("AAA "));
    w.finish();
    std::vector<uint8_t> bytes = fileBytes(path);
    std::remove(path.c_str());

    SnapshotReader r(bytes.data(), bytes.size(), "section");
    try {
        r.expectSection(snapTag("BBB "), "L1Cache");
        FAIL() << "wrong section accepted";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::Corrupt);
        EXPECT_NE(std::string(e.what()).find("L1Cache"), std::string::npos);
    }
}

TEST(SnapshotFuzz, MissingFileIsTypedIoError)
{
    try {
        SnapshotReader r(tempPath("does_not_exist.snap"));
        FAIL() << "missing file accepted";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::Io);
        EXPECT_NE(std::string(e.what()).find("does_not_exist"),
                  std::string::npos)
            << "error should name the path";
    }
}

// ---------------------------------------------------------------------------
// Full CacheSim snapshots under fuzz: whatever a damaged checkpoint
// contains, load() must throw typed and never corrupt the process.

std::vector<uint8_t>
cacheSimSnapshotBytes(Workload &wl, CacheSim &sim)
{
    // Exercise the sim so the snapshot holds non-trivial state.
    const uint32_t edge = wl.textures->texture(1).pyramid.width();
    sim.bindTexture(1);
    for (uint32_t y = 0; y + 1 < edge; y += 3)
        for (uint32_t x = 0; x + 1 < edge; x += 3)
            sim.accessQuad(x, y, x + 1, y + 1, 0);
    sim.endFrame();

    const std::string path = tempPath("fuzz_sim.snap");
    SnapshotWriter w(path);
    sim.save(w);
    w.finish();
    std::vector<uint8_t> bytes = fileBytes(path);
    std::remove(path.c_str());
    return bytes;
}

TEST(SnapshotFuzz, CacheSimLoadSurvivesTruncationEverywhere)
{
    VillageParams p;
    p.houses = 2;
    p.trees = 1;
    p.ground_texture_size = 64;
    p.wall_texture_size = 64;
    Workload wl = buildVillage(p);

    const CacheSimConfig cfg = CacheSimConfig::twoLevel(16 << 10, 1 << 20);
    CacheSim donor(*wl.textures, cfg, "donor");
    std::vector<uint8_t> bytes = cacheSimSnapshotBytes(wl, donor);

    // The header CRC guards whole-image damage; here we truncate the
    // *payload stream* as a sim would see it: rewrap the first n payload
    // bytes in a fresh valid header (magic/version/length/CRC all pass)
    // so CacheSim::load() itself must hit the wall cleanly.
    const size_t kHeader = 24; // magic[8] + version + length + crc
    ASSERT_GT(bytes.size(), kHeader);
    const std::string path = tempPath("fuzz_sim_cut.snap");
    size_t accepted = 0;
    for (size_t n = 0; n < bytes.size() - kHeader; n += 7) {
        SnapshotWriter w(path);
        for (size_t i = 0; i < n; ++i)
            w.u8(bytes[kHeader + i]);
        w.finish();
        CacheSim victim(*wl.textures, cfg, "donor");
        try {
            SnapshotReader r(path);
            victim.load(r);
            ++accepted; // only plausible when n == bytes.size()
        } catch (const Exception &e) {
            EXPECT_NE(e.code(), ErrorCode::None) << "cut at " << n;
        } catch (const std::exception &e) {
            FAIL() << "untyped exception at cut " << n << ": " << e.what();
        }
    }
    std::remove(path.c_str());
    EXPECT_EQ(accepted, 0u);
}

// ---------------------------------------------------------------------------
// Resume step bounds: a CRC-valid runner checkpoint whose stored next
// step lies beyond the run must be rejected as Corrupt, naming the value,
// instead of starting a runaway step loop. The tampered payload is
// rewrapped in a fresh valid header (as above), so only the supervision
// loop's bounds check stands in the way.

using SupervisedRunFn = std::function<RunManifest(const ResilienceConfig &)>;

/** Checkpoint bytes left by @p steps runs each stopped after one step. */
std::vector<uint8_t>
checkpointAfter(const std::string &snap, uint32_t steps,
                const SupervisedRunFn &run)
{
    for (uint32_t i = 0; i < steps; ++i) {
        ResilienceConfig rc;
        rc.checkpoint_path = snap;
        rc.resume = i > 0;
        rc.frame_deadline_ms = 1e-9; // every step overruns
        EXPECT_EQ(run(rc).next_frame, static_cast<int>(i + 1));
    }
    return fileBytes(snap);
}

void
expectResumeStepRejected(const char *name, uint32_t steps,
                         const SupervisedRunFn &run)
{
    const std::string snap = tempPath(name);
    const std::vector<uint8_t> one = checkpointAfter(snap, 1, run);
    const std::vector<uint8_t> two = checkpointAfter(snap, 2, run);
    // Only configuration precedes the little-endian resume step, so the
    // first payload byte where the step-1 and step-2 images differ is
    // the field's low byte.
    const size_t kHeader = 24; // magic[8] + version + length + crc
    size_t at = kHeader;
    while (at < one.size() && at < two.size() && one[at] == two[at])
        ++at;
    ASSERT_LT(at + 4, one.size());
    ASSERT_EQ(one[at], 1u);
    ASSERT_EQ(two[at], 2u);

    for (const uint32_t next : {steps + 1, 0x80000000u, 0xFFFFFFFFu}) {
        SnapshotWriter w(snap);
        for (size_t i = kHeader; i < one.size(); ++i)
            w.u8(i >= at && i < at + 4
                     ? static_cast<uint8_t>(next >> (8 * (i - at)))
                     : one[i]);
        w.finish();
        ResilienceConfig rc;
        rc.checkpoint_path = snap;
        rc.resume = true;
        try {
            run(rc);
            ADD_FAILURE() << name << ": resume step " << next << " accepted";
        } catch (const Exception &e) {
            EXPECT_EQ(e.code(), ErrorCode::Corrupt) << name;
            EXPECT_NE(std::string(e.what()).find(std::to_string(next)),
                      std::string::npos)
                << e.what();
        }
    }
    for (const char *suffix : {"", ".prev", ".manifest"})
        std::remove((snap + suffix).c_str());
}

TEST(SnapshotFuzz, RunCheckpointRejectsResumeFrameBeyondTheClip)
{
    VillageParams p;
    p.houses = 2;
    p.trees = 1;
    p.ground_texture_size = 64;
    p.wall_texture_size = 64;
    Workload wl = buildVillage(p);
    DriverConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.frames = 6;
    expectResumeStepRejected(
        "fuzz_run_next.snap", 6, [&](const ResilienceConfig &rc) {
            MultiConfigRunner runner(wl, cfg);
            runner.addSim(CacheSimConfig::twoLevel(4 << 10, 1 << 20), "l2");
            return runner.runSupervised(rc);
        });
}

TEST(SnapshotFuzz, MultiStreamCheckpointRejectsResumeRoundBeyondTheRun)
{
    MultiStreamConfig ms;
    ms.width = 64;
    ms.height = 48;
    ms.rounds = 6;
    ms.l1_bytes = 4ull << 10;
    ms.l2_bytes = 256ull << 10;
    StreamSpec thrasher;
    thrasher.workload = kThrasherWorkload;
    ms.streams = {thrasher};
    expectResumeStepRejected("fuzz_mst_next.snap", 6,
                             [&](const ResilienceConfig &rc) {
                                 MultiStreamRunner runner(ms);
                                 return runner.run(rc);
                             });
}

// ---------------------------------------------------------------------------
// Generational fallback: with keepPrevious() the previous good snapshot
// survives as `<path>.prev`, and openSnapshotGeneration() must recover
// it bit-identically no matter how the newest generation is damaged.

/** Overwrite @p path with exactly @p n bytes of @p bytes, raw. */
void
writeRaw(const std::string &path, const std::vector<uint8_t> &bytes,
         size_t n)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    // An empty vector may hand out a null data(), which fwrite must
    // not see even for a zero-length write.
    if (n != 0) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, n, f), n);
    }
    std::fclose(f);
}

/** Two generations at @p path: gen1 (rotated to .prev) and gen2. */
struct GenerationPair
{
    std::string path;
    std::vector<uint8_t> gen1; ///< now at path + ".prev"
    std::vector<uint8_t> gen2; ///< at path
};

GenerationPair
writeTwoGenerations(const char *name)
{
    GenerationPair gp;
    gp.path = tempPath(name);
    {
        SnapshotWriter w(gp.path);
        w.keepPrevious(true);
        w.section(snapTag("GEN "));
        w.u32(1u); // generation marker
        w.str("first generation");
        w.finish();
    }
    gp.gen1 = fileBytes(gp.path);
    {
        SnapshotWriter w(gp.path);
        w.keepPrevious(true);
        w.section(snapTag("GEN "));
        w.u32(2u);
        w.str("second generation");
        w.finish();
    }
    gp.gen2 = fileBytes(gp.path);
    // The rotation is a rename, so .prev is gen1 to the byte.
    EXPECT_EQ(fileBytes(gp.path + kPreviousGenerationSuffix), gp.gen1);
    return gp;
}

/** Read one generation snapshot, returning its marker. */
uint32_t
readGeneration(SnapshotReader &r)
{
    r.expectSection(snapTag("GEN "), "generation");
    const uint32_t gen = r.u32();
    const std::string text = r.str();
    EXPECT_EQ(text, gen == 1 ? "first generation" : "second generation");
    r.expectEnd();
    return gen;
}

TEST(SnapshotFuzz, IntactNewestGenerationWinsOverPrev)
{
    GenerationPair gp = writeTwoGenerations("gen_intact.snap");
    bool used_previous = true;
    SnapshotReader r = openSnapshotGeneration(gp.path, &used_previous);
    EXPECT_FALSE(used_previous);
    EXPECT_EQ(readGeneration(r), 2u);
    std::remove(gp.path.c_str());
    std::remove((gp.path + kPreviousGenerationSuffix).c_str());
}

TEST(SnapshotFuzz, TruncatedNewestGenerationRecoversFromPrevEverywhere)
{
    GenerationPair gp = writeTwoGenerations("gen_trunc.snap");
    // Truncate the newest generation at EVERY byte (a torn rename or a
    // crash mid-commit can stop anywhere); the loader must fall back to
    // the previous generation every single time.
    for (size_t n = 0; n < gp.gen2.size(); ++n) {
        writeRaw(gp.path, gp.gen2, n);
        bool used_previous = false;
        SnapshotReader r = openSnapshotGeneration(gp.path, &used_previous);
        EXPECT_TRUE(used_previous) << "cut at " << n;
        EXPECT_EQ(readGeneration(r), 1u) << "cut at " << n;
    }
    // The fallback path never modifies the previous generation.
    EXPECT_EQ(fileBytes(gp.path + kPreviousGenerationSuffix), gp.gen1);
    std::remove(gp.path.c_str());
    std::remove((gp.path + kPreviousGenerationSuffix).c_str());
}

TEST(SnapshotFuzz, BitFlippedNewestGenerationRecoversFromPrevEverywhere)
{
    GenerationPair gp = writeTwoGenerations("gen_flip.snap");
    for (size_t i = 0; i < gp.gen2.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> mutant = gp.gen2;
            mutant[i] = static_cast<uint8_t>(mutant[i] ^ (1u << bit));
            writeRaw(gp.path, mutant, mutant.size());
            bool used_previous = false;
            SnapshotReader r =
                openSnapshotGeneration(gp.path, &used_previous);
            EXPECT_TRUE(used_previous) << "byte " << i << " bit " << bit;
            EXPECT_EQ(readGeneration(r), 1u)
                << "byte " << i << " bit " << bit;
        }
    }
    EXPECT_EQ(fileBytes(gp.path + kPreviousGenerationSuffix), gp.gen1);
    std::remove(gp.path.c_str());
    std::remove((gp.path + kPreviousGenerationSuffix).c_str());
}

TEST(SnapshotFuzz, BothGenerationsDeadRethrowsNewestError)
{
    GenerationPair gp = writeTwoGenerations("gen_dead.snap");
    writeRaw(gp.path, gp.gen2, 4); // dead newest: not even a header
    const std::string prev = gp.path + kPreviousGenerationSuffix;
    std::vector<uint8_t> bad_prev = gp.gen1;
    bad_prev[bad_prev.size() / 2] ^= 0x40; // dead previous: CRC fails
    writeRaw(prev, bad_prev, bad_prev.size());
    try {
        SnapshotReader r = openSnapshotGeneration(gp.path);
        FAIL() << "two dead generations accepted";
    } catch (const Exception &e) {
        // The caller sees the NEWEST generation's diagnosis; the .prev
        // failure is a secondary detail.
        EXPECT_EQ(e.code(), ErrorCode::Truncated);
    }
    std::remove(gp.path.c_str());
    std::remove(prev.c_str());
}

TEST(SnapshotFuzz, CacheSimLoadRejectsConfigSkew)
{
    VillageParams p;
    p.houses = 2;
    p.trees = 1;
    p.ground_texture_size = 64;
    p.wall_texture_size = 64;
    Workload wl = buildVillage(p);

    CacheSim donor(*wl.textures,
                   CacheSimConfig::twoLevel(16 << 10, 1 << 20), "donor");
    std::vector<uint8_t> bytes = cacheSimSnapshotBytes(wl, donor);

    // Same texture set, different L2 size: must refuse, naming skew.
    CacheSim other(*wl.textures,
                   CacheSimConfig::twoLevel(16 << 10, 2 << 20), "donor");
    SnapshotReader r(bytes.data(), bytes.size(), "skew");
    try {
        other.load(r);
        FAIL() << "config skew accepted";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::VersionMismatch);
    }
}

// ---------------------------------------------------------------------------
// The same recovery guarantee for a REAL checkpoint: a K-stream
// multi-tenant run's snapshot (MST section: shared L2, K private sims,
// per-round rows, quarantine state). Damaging the newest generation
// must never lose the run — the loader falls back to the previous
// periodic checkpoint, an earlier round, and determinism makes the
// finished run's per-stream CSVs byte-identical to an uninterrupted
// reference.

TEST(SnapshotFuzz, MultiStreamCheckpointRecoversFromPrevGeneration)
{
    MultiStreamConfig ms;
    ms.width = 64;
    ms.height = 48;
    ms.rounds = 6;
    ms.l1_bytes = 4ull << 10;
    ms.l2_bytes = 256ull << 10;
    ms.share = L2SharePolicy::Shared;
    ms.jobs = 1;
    StreamSpec village;
    village.workload = "village";
    village.filter = FilterMode::Bilinear;
    StreamSpec city;
    city.workload = "city";
    city.filter = FilterMode::Trilinear;
    city.phase = 3;
    ms.streams = {village, city};

    // Uninterrupted reference CSVs.
    std::vector<std::vector<uint8_t>> reference;
    {
        MultiStreamRunner runner(ms);
        ASSERT_EQ(runner.run({}).outcome, RunOutcome::Completed);
        for (uint32_t i = 0; i < runner.streamCount(); ++i) {
            const std::string path = tempPath("gen_ms_ref.csv");
            runner.writeStreamCsv(i, path);
            reference.push_back(fileBytes(path));
            std::remove(path.c_str());
        }
    }

    // A checkpointed run leaves two generations behind: periodic saves
    // every 2 rounds plus the final one, each rotating the predecessor
    // to `.prev` (MultiStreamRunner::saveCheckpoint uses keepPrevious).
    const std::string snap = tempPath("gen_ms.snap");
    const std::string prev_path = snap + kPreviousGenerationSuffix;
    ResilienceConfig res;
    res.checkpoint_path = snap;
    res.checkpoint_every = 2;
    {
        MultiStreamRunner runner(ms);
        ASSERT_EQ(runner.run(res).outcome, RunOutcome::Completed);
    }
    const std::vector<uint8_t> newest = fileBytes(snap);
    const std::vector<uint8_t> prev = fileBytes(prev_path);
    ASSERT_FALSE(prev.empty());
    ASSERT_GT(newest.size(), 64u);

    // Damage the newest generation several ways: strided truncations
    // (a K-stream snapshot is too large for the per-byte sweep the
    // small-image tests above run) and single-bit flips in the header,
    // mid-payload and tail.
    std::vector<std::vector<uint8_t>> mutants;
    for (const size_t n : {size_t{0}, size_t{7}, size_t{23},
                           newest.size() / 3, newest.size() / 2,
                           newest.size() - 1})
        mutants.emplace_back(newest.begin(),
                             newest.begin() + static_cast<long>(n));
    for (const size_t at : {size_t{9}, newest.size() / 2,
                            newest.size() - 2}) {
        mutants.push_back(newest);
        mutants.back()[at] ^= 0x10;
    }

    ResilienceConfig resume = res;
    resume.resume = true;
    for (size_t m = 0; m < mutants.size(); ++m) {
        // Fresh pristine generations, then damage the newest.
        writeRaw(prev_path, prev, prev.size());
        writeRaw(snap, mutants[m], mutants[m].size());

        // The loader must pick the previous generation...
        {
            bool used_previous = false;
            SnapshotReader r = openSnapshotGeneration(snap, &used_previous);
            EXPECT_TRUE(used_previous) << "mutant " << m;
        }

        // ...and the resumed run must finish bit-identically.
        MultiStreamRunner runner(ms);
        ASSERT_EQ(runner.run(resume).outcome, RunOutcome::Completed)
            << "mutant " << m;
        for (uint32_t i = 0; i < runner.streamCount(); ++i) {
            const std::string path = tempPath("gen_ms_res.csv");
            runner.writeStreamCsv(i, path);
            EXPECT_EQ(fileBytes(path), reference[i])
                << "mutant " << m << " stream " << i;
            std::remove(path.c_str());
        }
    }
    std::remove(snap.c_str());
    std::remove(prev_path.c_str());
}

} // namespace
} // namespace mltc
