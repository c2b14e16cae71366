/**
 * @file
 * Unit tests for the util module: CLI parsing, CSV/table formatting,
 * PRNG determinism and distribution sanity, env knobs, PPM output.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unistd.h>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/page_allocator.hpp"
#include "util/ppm.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace mltc {
namespace {

// --- CommandLine -------------------------------------------------------

TEST(CommandLine, ParsesKeyEqualsValue)
{
    const char *argv[] = {"prog", "--workload=city", "--frames=42"};
    CommandLine cli(3, argv);
    EXPECT_EQ(cli.getString("workload", ""), "city");
    EXPECT_EQ(cli.getInt("frames", 0), 42);
}

TEST(CommandLine, ParsesKeySpaceValue)
{
    const char *argv[] = {"prog", "--frames", "17", "--name", "x"};
    CommandLine cli(5, argv);
    EXPECT_EQ(cli.getInt("frames", 0), 17);
    EXPECT_EQ(cli.getString("name", ""), "x");
}

TEST(CommandLine, BareFlagIsTrue)
{
    const char *argv[] = {"prog", "--verbose", "--count=3"};
    CommandLine cli(3, argv);
    EXPECT_TRUE(cli.getFlag("verbose"));
    EXPECT_FALSE(cli.getFlag("quiet"));
}

TEST(CommandLine, FlagFollowedByFlagDoesNotConsume)
{
    const char *argv[] = {"prog", "--a", "--b"};
    CommandLine cli(3, argv);
    EXPECT_TRUE(cli.getFlag("a"));
    EXPECT_TRUE(cli.getFlag("b"));
}

TEST(CommandLine, PositionalArguments)
{
    const char *argv[] = {"prog", "input.txt", "--k=v", "more"};
    CommandLine cli(4, argv);
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "input.txt");
    EXPECT_EQ(cli.positional()[1], "more");
}

TEST(CommandLine, DefaultsWhenAbsent)
{
    const char *argv[] = {"prog"};
    CommandLine cli(1, argv);
    EXPECT_EQ(cli.getInt("missing", -7), -7);
    EXPECT_DOUBLE_EQ(cli.getDouble("missing", 2.5), 2.5);
    EXPECT_EQ(cli.getString("missing", "d"), "d");
}

TEST(CommandLine, UnparseableIntThrowsBadArgument)
{
    const char *argv[] = {"prog", "--n=abc"};
    CommandLine cli(2, argv);
    try {
        cli.getInt("n", 5);
        FAIL() << "expected BadArgument";
    } catch (const Exception &e) {
        EXPECT_EQ(e.code(), ErrorCode::BadArgument);
        EXPECT_NE(e.error().message.find("--n"), std::string::npos)
            << "error should name the flag: " << e.error().message;
    }
}

TEST(CommandLine, TrailingJunkThrowsBadArgument)
{
    const char *argv[] = {"prog", "--n=12zz", "--x=1.5q"};
    CommandLine cli(3, argv);
    EXPECT_THROW(cli.getInt("n", 0), Exception);
    EXPECT_THROW(cli.getDouble("x", 0.0), Exception);
}

TEST(CommandLine, IntOverflowThrowsBadArgument)
{
    const char *argv[] = {"prog", "--n=99999999999999999999999"};
    CommandLine cli(2, argv);
    EXPECT_THROW(cli.getInt("n", 0), Exception);
}

TEST(CommandLine, NegativeForUnsignedThrowsBadArgument)
{
    const char *argv[] = {"prog", "--n=-3", "--m=7"};
    CommandLine cli(3, argv);
    EXPECT_THROW(cli.getUnsigned("n", 0), Exception);
    EXPECT_EQ(cli.getUnsigned("m", 0), 7ul);
    EXPECT_EQ(cli.getUnsigned("missing", 9), 9ul);
}

TEST(CommandLine, ParseArgumentsTurnsBadValuesIntoUsageStatus)
{
    const char *argv[] = {"prog", "--n=5q", "--m=7"};
    CommandLine cli(3, argv);
    unsigned long m = 0;
    EXPECT_EQ(parseArguments([&] { m = cli.getUnsigned("m", 0); }), 0);
    EXPECT_EQ(m, 7ul);
    EXPECT_EQ(parseArguments([&] { cli.getInt("n", 0); }), 2);
    EXPECT_EQ(parseArguments([] { throw std::invalid_argument("bad"); }), 2);
}

TEST(CommandLine, DoubleParsing)
{
    const char *argv[] = {"prog", "--x=2.75"};
    CommandLine cli(2, argv);
    EXPECT_DOUBLE_EQ(cli.getDouble("x", 0.0), 2.75);
}

TEST(CommandLine, FlagValueZeroIsFalse)
{
    const char *argv[] = {"prog", "--opt=0"};
    CommandLine cli(2, argv);
    EXPECT_TRUE(cli.has("opt"));
    EXPECT_FALSE(cli.getFlag("opt"));
}

TEST(CommandLine, RejectUnreadNamesTheFirstUnreadFlag)
{
    const char *argv[] = {"prog", "--frame", "5", "--frames=3", "--bogus",
                          "pos"};
    CommandLine cli(6, argv);
    EXPECT_EQ(cli.getInt("frames", 0), 3);
    try {
        cli.rejectUnread();
        FAIL() << "an unread flag was accepted";
    } catch (const Exception &e) {
        EXPECT_EQ(e.error().code, ErrorCode::BadArgument);
        EXPECT_EQ(e.error().message, "--frame: unknown flag");
    }
    EXPECT_EQ(parseArguments([&] { cli.rejectUnread(); }), 2);
}

TEST(CommandLine, EveryLookupCountsAsARead)
{
    const char *argv[] = {"prog", "--a=1", "--b", "--c=x", "--d=2.5",
                          "--e=4", "--f"};
    CommandLine cli(7, argv);
    cli.getInt("a", 0);
    cli.getFlag("b");
    cli.getString("c", "");
    cli.getDouble("d", 0.0);
    EXPECT_THROW(cli.rejectUnread(), Exception);
    cli.getUnsigned("e", 0);
    EXPECT_TRUE(cli.has("f"));
    EXPECT_NO_THROW(cli.rejectUnread());
    // Asking for an absent flag is harmless; positionals are not flags.
    EXPECT_EQ(cli.getInt("absent", 7), 7);
    EXPECT_NO_THROW(cli.rejectUnread());
}

TEST(CommandLine, RejectUnreadAcceptsARepeatedFlagOnceRead)
{
    const char *argv[] = {"prog", "--n=1", "--n=2"};
    CommandLine cli(3, argv);
    EXPECT_EQ(cli.getInt("n", 0), 2);
    EXPECT_NO_THROW(cli.rejectUnread());
}

// --- Rng ----------------------------------------------------------------

TEST(PageAllocator, MapsLargeBlocksAndKeepsContents)
{
    // Blocks from kDirectBytes up are whole mapped pages; both kinds
    // hold their contents through growth and copies.
    const long page = sysconf(_SC_PAGESIZE);
    for (size_t n : {size_t{16}, detail::kDirectBytes / 4 - 1,
                     detail::kDirectBytes / 4, size_t{1} << 20}) {
        std::vector<uint32_t, PageAllocator<uint32_t>> v(n);
        for (size_t i = 0; i < n; ++i)
            v[i] = static_cast<uint32_t>(i * 2654435761u);
        if (n * 4 >= detail::kDirectBytes) {
            EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) %
                          static_cast<uintptr_t>(page),
                      0u)
                << n;
        }
        v.push_back(7);
        const auto copy = v;
        ASSERT_EQ(copy.size(), n + 1);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(copy[i], static_cast<uint32_t>(i * 2654435761u)) << n;
        EXPECT_EQ(copy.back(), 7u);
    }
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntervalRespectsBounds)
{
    Rng rng(10);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(-3.0, 7.0);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 7.0);
    }
}

TEST(Rng, BelowIsBounded)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(12);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int v = rng.range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, MeanIsRoughlyHalf)
{
    Rng rng(13);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ReseedReproduces)
{
    Rng rng(77);
    uint64_t first = rng.next();
    rng.next();
    rng.reseed(77);
    EXPECT_EQ(rng.next(), first);
}

// --- Table formatting ----------------------------------------------------

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable t({"a", "bb"});
    t.addRow({"1", "2"});
    std::string out = t.render();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_NE(out.find("1"), std::string::npos);
}

TEST(TextTable, PadsShortRows)
{
    TextTable t({"x", "y", "z"});
    t.addRow({"only"});
    EXPECT_NO_THROW(t.render());
}

TEST(TextTable, NumericRowFormatting)
{
    TextTable t({"label", "v1", "v2"});
    t.addRow("row", {1.234, 5.678}, 1);
    std::string out = t.render();
    EXPECT_NE(out.find("1.2"), std::string::npos);
    EXPECT_NE(out.find("5.7"), std::string::npos);
}

TEST(Format, Bytes)
{
    EXPECT_EQ(formatBytes(512), "512.00 B");
    EXPECT_EQ(formatBytes(2048), "2.00 KB");
    EXPECT_EQ(formatBytes(3.5 * 1024 * 1024), "3.50 MB");
}

TEST(Format, Percent)
{
    EXPECT_EQ(formatPercent(0.5), "50.0%");
    EXPECT_EQ(formatPercent(0.987, 2), "98.70%");
}

TEST(Format, Double)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
}

// --- CSV -----------------------------------------------------------------

TEST(CsvWriter, WritesHeaderAndRows)
{
    std::string path = testing::TempDir() + "mltc_csv_test.csv";
    {
        CsvWriter csv(path, {"a", "b"});
        csv.row({1.5, 2.5});
        csv.rowStrings({"x", "y"});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1.5,2.5");
    std::getline(in, line);
    EXPECT_EQ(line, "x,y");
    std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWidthMismatch)
{
    std::string path = testing::TempDir() + "mltc_csv_test2.csv";
    CsvWriter csv(path, {"a", "b"});
    EXPECT_THROW(csv.row({1.0}), std::invalid_argument);
    std::remove(path.c_str());
}

TEST(CsvWriter, ThrowsOnBadPath)
{
    EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv", {"a"}),
                 std::runtime_error);
}

// --- PPM -----------------------------------------------------------------

TEST(Ppm, WritesValidHeaderAndSize)
{
    std::string path = testing::TempDir() + "mltc_ppm_test.ppm";
    std::vector<uint32_t> pixels(4, 0xff0000ffu); // red
    ASSERT_TRUE(writePpm(path, 2, 2, pixels));
    std::ifstream in(path, std::ios::binary);
    std::string magic;
    in >> magic;
    EXPECT_EQ(magic, "P6");
    int w, h, maxv;
    in >> w >> h >> maxv;
    EXPECT_EQ(w, 2);
    EXPECT_EQ(h, 2);
    EXPECT_EQ(maxv, 255);
    in.get(); // single whitespace after header
    unsigned char rgb[3];
    in.read(reinterpret_cast<char *>(rgb), 3);
    EXPECT_EQ(rgb[0], 255); // R
    EXPECT_EQ(rgb[1], 0);   // G
    EXPECT_EQ(rgb[2], 0);   // B
    std::remove(path.c_str());
}

TEST(Ppm, RejectsShortBuffer)
{
    std::vector<uint32_t> pixels(3);
    EXPECT_FALSE(writePpm(testing::TempDir() + "x.ppm", 2, 2, pixels));
}

TEST(Ppm, RejectsBadDimensions)
{
    std::vector<uint32_t> pixels(4);
    EXPECT_FALSE(writePpm(testing::TempDir() + "x.ppm", 0, 2, pixels));
}

// --- Env -----------------------------------------------------------------

TEST(Env, IntFallsBackWhenUnset)
{
    unsetenv("MLTC_TEST_UNSET_VAR");
    EXPECT_EQ(envInt("MLTC_TEST_UNSET_VAR", 99), 99);
}

TEST(Env, IntParsesWhenSet)
{
    setenv("MLTC_TEST_VAR", "123", 1);
    EXPECT_EQ(envInt("MLTC_TEST_VAR", 0), 123);
    unsetenv("MLTC_TEST_VAR");
}

TEST(Env, BenchFrameCountUsesOverride)
{
    setenv("MLTC_FRAMES", "7", 1);
    EXPECT_EQ(benchFrameCount(100), 7);
    unsetenv("MLTC_FRAMES");
    EXPECT_EQ(benchFrameCount(100), 100);
}

} // namespace
} // namespace mltc
