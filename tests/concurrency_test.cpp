/**
 * @file
 * Tests for the recommendation-R1 co-scheduling advisor.
 */


#include <gtest/gtest.h>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/concurrency.hpp"
#include "kernels/workloads.hpp"
#include "sim/machine_config.hpp"
#include "support/logging.hpp"
#include "tests/test_fixtures.hpp"

namespace fc = fingrav::core;
namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
namespace sim = fingrav::sim;

namespace {

using fingrav::testing::nodeSpec;

/** The stock MI300X description every node here runs. */
const sim::MachineConfig kCfg = sim::mi300xConfig();

}  // namespace

TEST(Complementarity, DisjointDemandsScoreHigh)
{
    const auto cfg = sim::mi300xConfig();
    // Compute-bound GEMM vs memory-bound GEMV: largely disjoint demands.
    const auto gemm = fk::makeSquareGemm(4096, cfg);
    const auto gemv = fk::makeGemv(8192, cfg);
    const double mixed =
        fc::ConcurrencyAdvisor::complementarity(*gemm, *gemv);
    // Identical kernels: zero complementarity.
    const double same =
        fc::ConcurrencyAdvisor::complementarity(*gemm, *gemm);
    EXPECT_GT(mixed, 0.25);
    EXPECT_NEAR(same, 0.0, 1e-9);
    // Symmetry.
    EXPECT_NEAR(mixed,
                fc::ConcurrencyAdvisor::complementarity(*gemv, *gemm),
                1e-12);
}

TEST(Complementarity, CollectiveVsGemmIsHighlyComplementary)
{
    const auto cfg = sim::mi300xConfig();
    const auto gemm = fk::makeSquareGemm(8192, cfg);
    const auto ag = fk::kernelByLabel("AG-64KB", cfg);
    // Fabric demand vs compute demand barely overlap — the paper's
    // "latency-bound communication in parallel with any other
    // computation" suggestion.
    EXPECT_GT(fc::ConcurrencyAdvisor::complementarity(*gemm, *ag), 0.6);
}

TEST(Advisor, ComplementaryPairWinsWallTime)
{
    fc::CampaignNode node(nodeSpec(801), kCfg);
    fc::ConcurrencyAdvisor advisor(node.host(), node.profilerRng());
    const auto rep = advisor.evaluate(fk::makeSquareGemm(4096, kCfg),
                                      fk::makeGemv(8192, kCfg),
                                      /*iters=*/12, 1, 6);
    EXPECT_GT(rep.speedup, 1.15);
    EXPECT_GT(rep.concurrent_avg_w, rep.serial_avg_w);
    // Same work either way: energy within 20 %.
    EXPECT_NEAR(rep.concurrent_energy_j, rep.serial_energy_j,
                0.2 * rep.serial_energy_j);
    EXPECT_TRUE(rep.worthIt(kCfg.dvfs.sustained_limit_w));
}

TEST(Advisor, SelfPairGainsLittle)
{
    // Two copies of the same compute-bound kernel contend for CU slots
    // and issue bandwidth: concurrency buys far less than for a
    // complementary pair (residual gain comes from filling each other's
    // pipeline bubbles).
    fc::CampaignNode node(nodeSpec(802), kCfg);
    fc::ConcurrencyAdvisor advisor(node.host(), node.profilerRng());
    const auto rep = advisor.evaluate(fk::makeSquareGemm(4096, kCfg),
                                      fk::makeSquareGemm(4096, kCfg),
                                      /*iters=*/10, 1, 1);
    EXPECT_LT(rep.speedup, 1.25);
}

TEST(Advisor, Validation)
{
    fc::CampaignNode node(nodeSpec(803), kCfg);
    fc::ConcurrencyAdvisor advisor(node.host(), node.profilerRng());
    const auto gemm = fk::makeSquareGemm(2048, kCfg);
    EXPECT_THROW(advisor.evaluate(nullptr, gemm), fs::FatalError);
    EXPECT_THROW(advisor.evaluate(gemm, gemm, 0), fs::FatalError);
    EXPECT_THROW(
        advisor.evaluate(gemm, fk::kernelByLabel("AG-1GB", kCfg)),
        fs::FatalError);
}
