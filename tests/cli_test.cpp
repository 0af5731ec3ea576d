/**
 * @file
 * fingrav_cli option handling, driven through the real binary.
 *
 * A flag the command would silently ignore is a typo in disguise: a
 * `--cache-dir` that caches nothing, a `--csv` that writes nothing.  The
 * CLI rejects such flags with the same usage-text exit as an unknown
 * flag, before any work runs.  The binary comes from the
 * FINGRAV_CLI_PATH compile definition (CMakeLists.txt).
 */

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "tests/test_fixtures.hpp"

#ifndef FINGRAV_CLI_PATH
#error "FINGRAV_CLI_PATH must point at the fingrav_cli binary"
#endif

namespace {

using fingrav::testing::runCli;
using fingrav::testing::TempDir;

/** Exit code of an unknown flag: the baseline every rejection matches. */
int
unknownFlagExit()
{
    std::string output;
    return runCli("profile CB-2K-GEMM --no-such-flag", output);
}

/** `args` must fail like an unknown flag, naming `flag`. */
void
expectRejected(const std::string& args, const std::string& flag)
{
    std::string output;
    const int code = runCli(args, output);
    EXPECT_NE(code, 0) << args << "\n" << output;
    EXPECT_EQ(code, unknownFlagExit()) << args << "\n" << output;
    EXPECT_NE(output.find("error: " + flag), std::string::npos) << output;
}

}  // namespace

TEST(Cli, UnknownFlagExitsNonZero)
{
    EXPECT_NE(unknownFlagExit(), 0);
}

TEST(Cli, ProfileAutotuneRejectsCacheDir)
{
    TempDir dir("fingrav_cli");
    const std::string cache = dir.path() + "/cache";
    expectRejected("profile CB-2K-GEMM --autotune --runs 4 --cache-dir " +
                       cache,
                   "--cache-dir");
    EXPECT_FALSE(std::filesystem::exists(cache));
    // The recorded pool is not dispatched either.
    for (const char* flag : {"--io-timeout-ms 5", "--fault-plan spawn-fail"}) {
        const std::string option(flag);
        expectRejected("profile CB-2K-GEMM --autotune --runs 4 " + option,
                       option.substr(0, option.find(' ')));
    }
}

TEST(Cli, CoscheduleRejectsCacheDir)
{
    TempDir dir("fingrav_cli");
    const std::string cache = dir.path() + "/cache";
    expectRejected("coschedule CB-2K-GEMM MB-4K-GEMV --cache-dir " + cache,
                   "--cache-dir");
    EXPECT_FALSE(std::filesystem::exists(cache));
}

TEST(Cli, CoscheduleRejectsCsv)
{
    expectRejected("coschedule CB-2K-GEMM MB-4K-GEMV --csv pair_dump",
                   "--csv");
}

TEST(Cli, CoscheduleRejectsRunPathFlags)
{
    // coschedule runs one in-process node: the fleet, cache and fault
    // flags of the campaign run path would all be dropped.
    for (const char* flag : {"--fleet 2", "--autotune", "--io-timeout-ms 5",
                             "--fault-plan spawn-fail"}) {
        const std::string option(flag);
        expectRejected("coschedule CB-2K-GEMM MB-4K-GEMV " + option,
                       option.substr(0, option.find(' ')));
    }
}

TEST(Cli, RunPathRejectsFleetFlagsWithoutFleet)
{
    // In process there is no worker pipe to time out, and without a
    // cache store either a fault plan has nothing to act on.
    for (const char* command : {"profile CB-2K-GEMM",
                                "compare CB-2K-GEMM MB-4K-GEMV",
                                "campaign CB-2K-GEMM"}) {
        const std::string run = std::string(command) + " --runs 2 --quiet ";
        expectRejected(run + "--io-timeout-ms 5", "--io-timeout-ms");
        expectRejected(run + "--fault-plan kill:seat=0,frame=0",
                       "--fault-plan");
    }
    TempDir dir("fingrav_cli");
    const std::string cache = dir.path() + "/cache";
    expectRejected("profile CB-2K-GEMM --runs 2 --cache-dir " + cache +
                       " --no-cache --fault-plan store-short",
                   "--fault-plan");
    // A cache store is a fault site of its own.
    std::string output;
    EXPECT_EQ(runCli("profile CB-2K-GEMM --runs 2 --quiet --cache-dir " +
                         cache + " --fault-plan store-short",
                     output),
              0)
        << output;
}
