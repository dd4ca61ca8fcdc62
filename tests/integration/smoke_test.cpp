// End-to-end smoke tests: every FTL survives a mixed random workload with
// full data verification, through GC churn and buffer pressure.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/ssd.h"
#include "test_common.h"
#include "workload/synthetic.h"

namespace esp {
namespace {

using core::FtlKind;
using test::tiny_config;

class SmokeTest : public ::testing::TestWithParam<FtlKind> {};

TEST_P(SmokeTest, SequentialFillThenReadBack) {
  core::Ssd ssd(tiny_config(GetParam()));
  ssd.precondition(1.0);
  auto& drv = ssd.driver();

  const std::uint64_t sectors = ssd.logical_sectors();
  for (std::uint64_t s = 0; s < sectors; s += 16) {
    const auto n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        16, sectors - s));
    drv.submit({workload::Request::Type::kRead, s, n, false, 0.0});
  }
  EXPECT_EQ(drv.verify_failures(), 0u);
}

TEST_P(SmokeTest, RandomMixedWorkloadVerifies) {
  core::Ssd ssd(tiny_config(GetParam()));
  ssd.precondition(1.0);

  workload::SyntheticParams params;
  params.footprint_sectors = ssd.logical_sectors();
  params.request_count = 20000;
  params.r_small = 0.8;
  params.r_synch = 0.7;
  params.read_fraction = 0.3;
  params.seed = 7;
  workload::SyntheticWorkload stream(params);

  const auto metrics = ssd.driver().run(stream, /*verify=*/true);
  EXPECT_EQ(metrics.verify_failures, 0u);
  EXPECT_EQ(metrics.io_errors, 0u);
  EXPECT_EQ(metrics.requests, params.request_count);
  EXPECT_GT(metrics.iops(), 0.0);
  // Enough churn to force garbage collection on a tiny device.
  EXPECT_GT(metrics.ftl_stats.gc_invocations, 0u);
}

TEST_P(SmokeTest, SyncOnlySmallWritesVerify) {
  core::Ssd ssd(tiny_config(GetParam()));
  ssd.precondition(1.0);

  workload::SyntheticParams params;
  params.footprint_sectors = ssd.logical_sectors();
  params.request_count = 10000;
  params.r_small = 1.0;
  params.r_synch = 1.0;
  params.seed = 11;
  workload::SyntheticWorkload stream(params);

  const auto metrics = ssd.driver().run(stream, /*verify=*/true);
  EXPECT_EQ(metrics.verify_failures, 0u);

  // Re-read everything after heavy small-write churn.
  auto& drv = ssd.driver();
  for (std::uint64_t s = 0; s < ssd.logical_sectors(); s += 4)
    drv.submit({workload::Request::Type::kRead, s, 4, false, 0.0});
  EXPECT_EQ(drv.verify_failures(), 0u);
}

TEST_P(SmokeTest, TrimmedRangesReadAsEmpty) {
  core::Ssd ssd(tiny_config(GetParam()));
  auto& drv = ssd.driver();
  // Write two logical pages, trim the first, verify both outcomes.
  drv.submit({workload::Request::Type::kWrite, 0, 8, true, 0.0});
  drv.submit({workload::Request::Type::kFlush, 0, 0, false, 0.0});
  drv.submit({workload::Request::Type::kTrim, 0, 4, false, 0.0});

  std::vector<std::uint64_t> tokens;
  ssd.ftl().read(0, 4, ssd.driver().now(), &tokens);
  for (const auto token : tokens) EXPECT_EQ(token, 0u);
  ssd.ftl().read(4, 4, ssd.driver().now(), &tokens);
  for (const auto token : tokens) EXPECT_NE(token, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllFtls, SmokeTest,
                         ::testing::Values(FtlKind::kCgm, FtlKind::kFgm,
                                           FtlKind::kSub,
                                           FtlKind::kSectorLog),
                         [](const auto& info) {
                           return core::ftl_kind_name(info.param);
                         });

TEST(ExperimentRunner, ProducesConsistentResult) {
  core::ExperimentSpec spec;
  spec.ssd = tiny_config(FtlKind::kSub);
  spec.workload.footprint_sectors = spec.ssd.logical_sectors();
  spec.workload.request_count = 5000;
  spec.workload.r_small = 1.0;
  spec.workload.r_synch = 1.0;
  spec.workload.seed = 3;

  const auto result = core::run_experiment(spec);
  EXPECT_EQ(result.ftl_name, "subFTL");
  EXPECT_EQ(result.raw.verify_failures, 0u);
  EXPECT_GT(result.raw.iops(), 0.0);
  EXPECT_GE(result.raw.small_request_waf, 1.0);
}

}  // namespace
}  // namespace esp
