// End-to-end telemetry acceptance: a telemetry-attached run must produce
//   (a) registry counters that reconcile exactly with the FtlStats / device
//       counter snapshots the run reports,
//   (b) a trace containing GC-copy spans (and their flash children),
//   (c) >= 2 time-series samples with monotonic sim-time,
// and attaching telemetry must not perturb simulated results.
#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.h"
#include "core/ssd.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "test_common.h"
#include "workload/synthetic.h"

namespace esp {
namespace {

using core::FtlKind;
using test::tiny_config;

workload::SyntheticParams churn_params(const core::Ssd& ssd) {
  workload::SyntheticParams params;
  params.footprint_sectors = ssd.logical_sectors();
  params.request_count = 20000;
  params.r_small = 0.8;
  params.r_synch = 0.7;
  params.read_fraction = 0.3;
  params.seed = 7;
  return params;
}

class TelemetryEndToEnd : public ::testing::TestWithParam<FtlKind> {};

TEST_P(TelemetryEndToEnd, CountersReconcileWithFtlStats) {
  telemetry::TelemetryConfig tcfg;
  tcfg.sample_interval_us = 0.05 * sim_time::kSecond;
  telemetry::Telemetry tel(tcfg);

  ftl::FtlStats stats;
  std::uint64_t device_erases = 0;
  std::string scope;
  {
    core::Ssd ssd(tiny_config(GetParam()));
    ssd.precondition(1.0);
    ssd.attach_telemetry(&tel);
    scope = ssd.ftl().name();

    workload::SyntheticWorkload stream(churn_params(ssd));
    const sim::RunMetrics metrics = ssd.driver().run(stream, /*verify=*/true);
    EXPECT_EQ(metrics.verify_failures, 0u);
    ASSERT_GT(metrics.ftl_stats.gc_invocations, 0u);
    // The registry binds the live, cumulative counters.
    stats = ssd.ftl().stats();
    device_erases = ssd.device().counters().erases;
  }
  // The Ssd is gone; its destructor materialized the registry, so every
  // bound counter must still read the final live value.
  const auto& reg = tel.registry();
  EXPECT_EQ(reg.counter_value(scope + "/gc_invocations"),
            stats.gc_invocations);
  EXPECT_EQ(reg.counter_value(scope + "/gc_copy_sectors"),
            stats.gc_copy_sectors);
  EXPECT_EQ(reg.counter_value(scope + "/host_write_sectors"),
            stats.host_write_sectors);
  EXPECT_EQ(reg.counter_value(scope + "/flash_prog_full"),
            stats.flash_prog_full);
  EXPECT_EQ(reg.counter_value(scope + "/flash_prog_sub"),
            stats.flash_prog_sub);
  EXPECT_EQ(reg.counter_value("nand/erases"), device_erases);
}

TEST_P(TelemetryEndToEnd, TraceCapturesGcAndSamplesAreMonotonic) {
  telemetry::TelemetryConfig tcfg;
  tcfg.sample_interval_us = 0.05 * sim_time::kSecond;
  telemetry::Telemetry tel(tcfg);

  core::Ssd ssd(tiny_config(GetParam()));
  ssd.precondition(1.0);
  ssd.attach_telemetry(&tel);
  workload::SyntheticWorkload stream(churn_params(ssd));
  const auto metrics = ssd.driver().run(stream, /*verify=*/true);
  ASSERT_GT(metrics.ftl_stats.gc_invocations, 0u);

  // (b) the trace holds GC-copy spans alongside host and flash lanes.
  std::uint64_t gc_spans = 0, host_spans = 0, flash_spans = 0;
  for (std::size_t i = 0; i < tel.trace().size(); ++i) {
    const auto& e = tel.trace().at(i);
    EXPECT_GE(e.dur_us, 0.0);
    switch (telemetry::op_lane(e.kind)) {
      case 0: ++host_spans; break;
      case 2: ++flash_spans; break;
      default:
        if (e.kind == telemetry::OpKind::kGcCopy) ++gc_spans;
    }
  }
  EXPECT_GE(gc_spans, 1u);
  EXPECT_GT(host_spans, 0u);
  EXPECT_GT(flash_spans, 0u);

  // (c) >= 2 samples, strictly monotonic sim-time, sane windows.
  const auto& samples = tel.sampler().samples();
  ASSERT_GE(samples.size(), 2u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i) {
      EXPECT_GT(samples[i].sim_time_s, samples[i - 1].sim_time_s);
    }
    EXPECT_GT(samples[i].requests, 0u);
    EXPECT_GE(samples[i].iops, 0.0);
  }

  // Both dump formats serialize without I/O errors and mention gc_copy.
  std::ostringstream chrome, jsonl, csv;
  tel.trace().dump_chrome(chrome);
  tel.trace().dump_jsonl(jsonl);
  tel.sampler().write_csv(csv);
  EXPECT_NE(chrome.str().find("\"name\":\"gc_copy\""), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"op\":\"gc_copy\""), std::string::npos);
  EXPECT_EQ(csv.str().find("nan"), std::string::npos);
}

TEST_P(TelemetryEndToEnd, AttachingTelemetryDoesNotPerturbResults) {
  sim::RunMetrics with, without;
  {
    core::Ssd ssd(tiny_config(GetParam()));
    ssd.precondition(1.0);
    workload::SyntheticWorkload stream(churn_params(ssd));
    without = ssd.driver().run(stream, /*verify=*/true);
  }
  {
    telemetry::Telemetry tel;
    core::Ssd ssd(tiny_config(GetParam()));
    ssd.precondition(1.0);
    ssd.attach_telemetry(&tel);
    workload::SyntheticWorkload stream(churn_params(ssd));
    with = ssd.driver().run(stream, /*verify=*/true);
  }
  EXPECT_EQ(with.ftl_stats.gc_invocations, without.ftl_stats.gc_invocations);
  EXPECT_EQ(with.ftl_stats.host_write_sectors,
            without.ftl_stats.host_write_sectors);
  EXPECT_EQ(with.device_erases, without.device_erases);
  EXPECT_DOUBLE_EQ(with.end_us, without.end_us);
}

INSTANTIATE_TEST_SUITE_P(AllFtls, TelemetryEndToEnd,
                         ::testing::Values(FtlKind::kCgm, FtlKind::kFgm,
                                           FtlKind::kSub,
                                           FtlKind::kSectorLog),
                         [](const auto& info) {
                           return core::ftl_kind_name(info.param);
                         });

TEST(TelemetryExperiment, SpecAttachExportsMetricsJson) {
  telemetry::TelemetryConfig tcfg;
  tcfg.sample_interval_us = 0.05 * sim_time::kSecond;
  telemetry::Telemetry tel(tcfg);

  core::ExperimentSpec spec;
  spec.ssd = test::tiny_config(FtlKind::kSub);
  spec.workload.footprint_sectors = spec.ssd.logical_sectors();
  spec.workload.request_count = 10000;
  spec.workload.r_small = 1.0;
  spec.workload.r_synch = 1.0;
  spec.workload.seed = 3;
  spec.telemetry = &tel;

  const auto result = core::run_experiment(spec);
  EXPECT_EQ(result.raw.verify_failures, 0u);

  std::ostringstream os;
  telemetry::write_metrics_json(os, tel);
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"counters\""), std::string::npos);
  EXPECT_NE(out.find("\"subFTL/host_write_sectors\""), std::string::npos);
  EXPECT_NE(out.find("\"op/host_write/latency_us\""), std::string::npos);
  EXPECT_NE(out.find("\"samples\":["), std::string::npos);
  ASSERT_GE(tel.sampler().samples().size(), 2u);
}

}  // namespace
}  // namespace esp
