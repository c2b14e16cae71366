/**
 * @file
 * Tests for the logging utility (level filtering and message assembly,
 * and the MLTC_LOG environment override in fresh subprocesses).
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "util/log.hpp"

namespace mltc {
namespace {

class LogTest : public ::testing::Test
{
  protected:
    void TearDown() override { setLogLevel(LogLevel::Info); }
};

TEST_F(LogTest, LevelRoundTrips)
{
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
}

TEST_F(LogTest, ConcatBuildsMessage)
{
    EXPECT_EQ(detail::concat("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(detail::concat(), "");
}

TEST_F(LogTest, OffSuppressesEverything)
{
    setLogLevel(LogLevel::Off);
    // Nothing should crash; output cannot easily be captured here, but
    // the calls must be safe at every level.
    logDebug("d");
    logInfo("i");
    logWarn("w");
    logError("e");
}

TEST_F(LogTest, OrderingOfLevels)
{
    EXPECT_LT(static_cast<int>(LogLevel::Debug),
              static_cast<int>(LogLevel::Info));
    EXPECT_LT(static_cast<int>(LogLevel::Info),
              static_cast<int>(LogLevel::Warn));
    EXPECT_LT(static_cast<int>(LogLevel::Warn),
              static_cast<int>(LogLevel::Error));
    EXPECT_LT(static_cast<int>(LogLevel::Error),
              static_cast<int>(LogLevel::Off));
}

// MLTC_LOG is read once per process, at the first level decision, so
// each case runs in a freshly started child ("threadsafe" death tests
// re-execute the test binary) with the variable set only there.
class LogEnv : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    }
};

/** In the child: set MLTC_LOG, exit 0 iff the level became @p want. */
[[noreturn]] void
exitWithLevelCheck(const char *value, LogLevel want)
{
    setenv("MLTC_LOG", value, 1);
    std::exit(logLevel() == want ? 0 : 1);
}

TEST_F(LogEnv, ValidLevelApplies)
{
    EXPECT_EXIT(exitWithLevelCheck("debug", LogLevel::Debug),
                ::testing::ExitedWithCode(0), "");
}

TEST_F(LogEnv, LevelNameIsCaseInsensitive)
{
    EXPECT_EXIT(exitWithLevelCheck("WaRnInG", LogLevel::Warn),
                ::testing::ExitedWithCode(0), "");
}

TEST_F(LogEnv, BogusValueKeepsDefaultAndWarns)
{
    EXPECT_EXIT(exitWithLevelCheck("loud", LogLevel::Info),
                ::testing::ExitedWithCode(0),
                "MLTC_LOG='loud' is not a level .*keeping 'info'");
}

TEST_F(LogEnv, ExplicitLevelWinsOverEnvironment)
{
    EXPECT_EXIT(
        {
            setLogLevel(LogLevel::Error);
            exitWithLevelCheck("debug", LogLevel::Error);
        },
        ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace mltc
