/**
 * @file
 * Tests for the Section VI extensions: outlier-bin profiling and kernel
 * phase splitting.
 */

#include <memory>

#include <gtest/gtest.h>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/outlier.hpp"
#include "fingrav/profiler.hpp"
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

/** kCfg with the allocation-outlier run probability set to `p`. */
sim::MachineConfig
withOutliers(double p)
{
    auto cfg = kCfg;
    cfg.outlier_run_probability = p;
    return cfg;
}

}  // namespace

TEST(PhaseSlice, SplitsDurationProportionally)
{
    const auto cfg = sim::mi300xConfig();
    const auto base = fk::makeSquareGemm(4096, cfg);
    const fk::PhaseSlice first(base, 0.0, 0.5);
    const fk::PhaseSlice second(base, 0.5, 1.0);
    const double whole = base->nominalDuration().toSeconds();
    const double sum = first.nominalDuration().toSeconds() +
                       second.nominalDuration().toSeconds();
    // Halves sum to the whole plus the two artificial-termination drains.
    EXPECT_NEAR(sum, whole + 2e-6, 2e-7);
    EXPECT_NEAR(first.nominalDuration().toSeconds(), whole / 2.0, 2e-6);
    EXPECT_DOUBLE_EQ(first.fraction(), 0.5);
}

TEST(PhaseSlice, InheritsUtilizationAndClassification)
{
    const auto cfg = sim::mi300xConfig();
    const auto base = fk::makeSquareGemm(8192, cfg);
    const fk::PhaseSlice slice(base, 0.25, 0.75);
    const auto base_work = base->workAt(1.0);
    const auto slice_work = slice.workAt(1.0);
    EXPECT_DOUBLE_EQ(slice_work.util.xcd_issue, base_work.util.xcd_issue);
    EXPECT_DOUBLE_EQ(slice_work.util.hbm_bw, base_work.util.hbm_bw);
    EXPECT_DOUBLE_EQ(slice.opsPerByte(), base->opsPerByte());
    EXPECT_FALSE(slice.isCollective());
}

TEST(PhaseSlice, LabelEncodesRange)
{
    const auto cfg = sim::mi300xConfig();
    const fk::PhaseSlice slice(fk::makeSquareGemm(2048, cfg), 0.0, 0.5);
    EXPECT_EQ(slice.label(), "CB-2K-GEMM[0-50%]");
}

TEST(PhaseSlice, Validation)
{
    const auto cfg = sim::mi300xConfig();
    const auto base = fk::makeSquareGemm(2048, cfg);
    EXPECT_THROW(fk::PhaseSlice(nullptr, 0.0, 0.5), fs::FatalError);
    EXPECT_THROW(fk::PhaseSlice(base, -0.1, 0.5), fs::FatalError);
    EXPECT_THROW(fk::PhaseSlice(base, 0.5, 0.5), fs::FatalError);
    EXPECT_THROW(fk::PhaseSlice(base, 0.5, 1.1), fs::FatalError);
}

TEST(PhaseSlice, ProfilesEndToEnd)
{
    fc::CampaignNode node(nodeSpec(501), kCfg);
    fc::ProfilerOptions opts;
    opts.runs_override = 60;
    const auto slice = std::make_shared<fk::PhaseSlice>(
        fk::makeSquareGemm(4096, kCfg), 0.0, 0.5);
    const auto set =
        fc::Profiler(node.host(), opts, node.profilerRng()).profile(slice);
    EXPECT_FALSE(set.ssp.empty());
    // Half the kernel at the same utilization: similar power level.
    EXPECT_GT(set.ssp.meanPower(), 500.0);
}

TEST(OutlierProfiler, FindsAndProfilesOutlierBin)
{
    // Raise the outlier rate so the probe reliably sees the population.
    fc::CampaignNode node(nodeSpec(502), withOutliers(0.15));
    fc::ProfilerOptions opts;
    opts.runs_override = 80;
    fc::OutlierProfiler profiler(node.host(), opts, node.profilerRng());
    const auto result =
        profiler.profile(fk::makeSquareGemm(4096, kCfg));

    ASSERT_TRUE(result.outlier_found);
    // The outlier bin sits meaningfully above the common one.
    EXPECT_GT(result.outlier_target.toMicros(),
              result.common.binning.bin_center.toMicros() * 1.08);
    // Step-6 retargeting worked: the outlier campaign binned around the
    // target, and its profile carries the stall signature (lower XCD).
    ASSERT_FALSE(result.outlier.ssp.empty());
    EXPECT_LT(result.outlier.ssp.meanPower(fc::Rail::kXcd),
              result.common.ssp.meanPower(fc::Rail::kXcd));
    // More runs were needed, as the paper warns.
    EXPECT_GT(result.outlier.runs_executed, result.common.runs_executed);
}

TEST(OutlierProfiler, ReportsWhenNoOutliersExist)
{
    fc::CampaignNode node(nodeSpec(503), withOutliers(0.0));  // none
    fc::ProfilerOptions opts;
    opts.runs_override = 40;
    fc::OutlierProfiler profiler(node.host(), opts, node.profilerRng());
    const auto result =
        profiler.profile(fk::makeSquareGemm(4096, kCfg));
    EXPECT_FALSE(result.outlier_found);
    EXPECT_FALSE(result.common.ssp.empty());
    EXPECT_THROW(profiler.profile(fk::makeSquareGemm(4096, kCfg), 0.0),
                 fs::FatalError);
}
