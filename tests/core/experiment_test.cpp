// ExperimentRunner tests: window isolation (warmup excluded), derived
// metrics, footprint defaulting.
#include "core/experiment.h"

#include <gtest/gtest.h>

#include "test_common.h"

namespace esp::core {
namespace {

ExperimentSpec base_spec() {
  ExperimentSpec spec;
  spec.ssd = test::tiny_config(FtlKind::kSub);
  spec.precondition_fraction = 0.7;
  spec.workload.request_count = 3000;
  spec.workload.r_small = 1.0;
  spec.workload.r_synch = 1.0;
  spec.workload.small_footprint_fraction = 0.2;
  spec.workload.seed = 11;
  return spec;
}

TEST(Experiment, FootprintDefaultsToPreconditionedRange) {
  auto spec = base_spec();
  ASSERT_EQ(spec.workload.footprint_sectors, 0u);
  const auto result = run_experiment(spec);
  EXPECT_EQ(result.raw.verify_failures, 0u);
  EXPECT_GT(result.raw.iops(), 0.0);
  EXPECT_GT(result.raw.host_mb_per_sec, 0.0);
}

TEST(Experiment, WarmupExcludedFromWindow) {
  auto spec = base_spec();
  spec.workload.request_count = 4000;
  spec.warmup_requests = 3000;
  const auto result = run_experiment(spec);
  // The measured window covers only the post-warmup requests.
  EXPECT_EQ(result.raw.requests, 1000u);
  EXPECT_EQ(result.raw.ftl_stats.host_write_requests +
                result.raw.ftl_stats.host_read_requests,
            1000u);
}

TEST(Experiment, WindowStatsConsistentWithBudget) {
  auto spec = base_spec();
  spec.workload.read_fraction = 0.0;
  const auto result = run_experiment(spec);
  // All-write small workload: window host sectors == request count.
  EXPECT_EQ(result.raw.ftl_stats.host_write_sectors, 3000u);
  EXPECT_GE(result.raw.small_request_waf, 0.9);
  EXPECT_GE(result.raw.overall_waf, 0.9);
}

TEST(Experiment, MappingBytesReported) {
  auto spec = base_spec();
  const auto result = run_experiment(spec);
  EXPECT_GT(result.mapping_bytes, 0u);
}

TEST(Experiment, DeterministicForSameSpec) {
  const auto a = run_experiment(base_spec());
  const auto b = run_experiment(base_spec());
  EXPECT_DOUBLE_EQ(a.raw.iops(), b.raw.iops());
  EXPECT_EQ(a.raw.ftl_stats.gc_invocations, b.raw.ftl_stats.gc_invocations);
  EXPECT_EQ(a.raw.erases_during_run, b.raw.erases_during_run);
}

TEST(Experiment, DifferentSeedsDiffer) {
  auto spec = base_spec();
  spec.workload.seed = 12;
  const auto a = run_experiment(base_spec());
  const auto b = run_experiment(spec);
  EXPECT_NE(a.raw.iops(), b.raw.iops());
}

TEST(Experiment, OneTenantReportsTheIoErrorsOfTheSingleStream) {
  // Small sync writes a day apart, half of them re-read later, on a device
  // that never evicts by age: reads of data past its retention fail. A
  // one-tenant run must report the io errors the single stream reports.
  auto spec = base_spec();
  spec.ssd.retention_evict_age = 1000 * sim_time::kDay;
  spec.workload.request_count = 600;
  spec.workload.read_fraction = 0.5;
  spec.workload.reads_follow_small = true;
  spec.workload.think_us = sim_time::kDay;
  const RunResult single = run_experiment(spec);

  TenantSpec tenant;
  tenant.workload = spec.workload;
  spec.tenants = {tenant};
  const RunResult muxed = run_experiment(spec);
  EXPECT_GT(single.raw.io_errors, 0u);
  EXPECT_EQ(muxed.raw.io_errors, single.raw.io_errors);
  EXPECT_EQ(muxed.raw.requests, single.raw.requests);
  EXPECT_EQ(muxed.raw.read_requests, single.raw.read_requests);
}

}  // namespace
}  // namespace esp::core
