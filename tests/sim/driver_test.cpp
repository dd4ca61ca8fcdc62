// Driver unit tests: queue-depth pipelining, clock semantics, verification,
// latency accounting, fault surfacing.
#include "sim/driver.h"

#include <gtest/gtest.h>

#include "ftl/cgm_ftl.h"
#include "ftl/sub_ftl.h"
#include "nand/device.h"
#include "workload/synthetic.h"

namespace esp::sim {
namespace {

using workload::Request;

nand::Geometry tiny_geo() {
  nand::Geometry geo;
  geo.channels = 4;
  geo.chips_per_channel = 2;
  geo.blocks_per_chip = 16;
  geo.pages_per_block = 16;
  geo.page_bytes = 16 * 1024;
  geo.subpages_per_page = 4;
  return geo;
}

struct DriverFixture {
  explicit DriverFixture(std::uint32_t queue_depth = 32) : dev(tiny_geo()) {
    ftl::CgmFtl::Config cfg;
    cfg.logical_sectors = 2048;
    ftl = std::make_unique<ftl::CgmFtl>(dev, cfg);
    driver = std::make_unique<Driver>(*ftl, dev, queue_depth);
  }
  nand::NandDevice dev;
  std::unique_ptr<ftl::CgmFtl> ftl;
  std::unique_ptr<Driver> driver;
};

TEST(Driver, WriteThenReadVerifies) {
  DriverFixture fx;
  fx.driver->submit({Request::Type::kWrite, 0, 4, false, 0.0});
  fx.driver->submit({Request::Type::kRead, 0, 4, false, 0.0});
  EXPECT_EQ(fx.driver->verify_failures(), 0u);
}

TEST(Driver, DetectsMappingCorruption) {
  // Sabotage: trim behind the driver's back, then read. The shadow map
  // still expects the old token, so verification must flag it.
  DriverFixture fx;
  fx.driver->submit({Request::Type::kWrite, 0, 4, false, 0.0});
  fx.ftl->trim(0, 4);  // bypasses Driver::submit on purpose
  fx.driver->submit({Request::Type::kRead, 0, 4, false, 0.0});
  EXPECT_EQ(fx.driver->verify_failures(), 4u);
}

TEST(Driver, ExpectedTokenTracksVersions) {
  DriverFixture fx;
  EXPECT_EQ(fx.driver->expected_token(9), 0u);
  fx.driver->submit({Request::Type::kWrite, 9, 1, false, 0.0});
  const auto v1 = fx.driver->expected_token(9);
  fx.driver->submit({Request::Type::kWrite, 9, 1, false, 0.0});
  EXPECT_NE(fx.driver->expected_token(9), v1);
}

TEST(Driver, QueueDepthPipelinesIndependentChips) {
  // With QD 1, N writes serialize; with QD 32 they overlap across chips.
  auto run_with_qd = [](std::uint32_t qd) {
    DriverFixture fx(qd);
    for (std::uint64_t i = 0; i < 64; ++i)
      fx.driver->submit({Request::Type::kWrite, i * 4, 4, false, 0.0},
                        false);
    return fx.driver->now();
  };
  const SimTime serial = run_with_qd(1);
  const SimTime pipelined = run_with_qd(32);
  EXPECT_LT(pipelined, serial / 3.0);
}

TEST(Driver, ThinkTimePacesArrivals) {
  DriverFixture fx;
  fx.driver->submit({Request::Type::kWrite, 0, 1, true, 1000000.0});
  EXPECT_GE(fx.driver->now(), 1000000.0);
}

TEST(Driver, AdvanceToMovesClockForward) {
  DriverFixture fx;
  fx.driver->advance_to(5000.0);
  EXPECT_EQ(fx.driver->now(), 5000.0);
  fx.driver->advance_to(100.0);  // never backwards
  EXPECT_EQ(fx.driver->now(), 5000.0);
  // Requests issued after an idle advance start no earlier than it.
  const auto result = fx.driver->submit({Request::Type::kWrite, 0, 4,
                                         false, 0.0});
  EXPECT_GE(result.done, 5000.0);
}

TEST(Driver, RunCountsRequestTypes) {
  DriverFixture fx;
  workload::SyntheticParams params;
  params.footprint_sectors = 2048;
  params.request_count = 500;
  params.read_fraction = 0.4;
  params.seed = 3;
  workload::SyntheticWorkload stream(params);
  const auto metrics = fx.driver->run(stream, true);
  EXPECT_EQ(metrics.requests, 500u);
  EXPECT_EQ(metrics.requests,
            metrics.read_requests + metrics.write_requests);
  EXPECT_GT(metrics.read_requests, 100u);
  EXPECT_GT(metrics.iops(), 0.0);
}

TEST(Driver, RunMaxRequestsSplitsStream) {
  DriverFixture fx;
  workload::SyntheticParams params;
  params.footprint_sectors = 2048;
  params.request_count = 300;
  params.seed = 4;
  workload::SyntheticWorkload stream(params);
  const auto first = fx.driver->run(stream, false, 100);
  EXPECT_EQ(first.requests, 100u);
  const auto rest = fx.driver->run(stream, false);
  EXPECT_EQ(rest.requests, 200u);
  EXPECT_GE(rest.start_us, first.end_us);
}

TEST(Driver, LatencyPercentilesPopulated) {
  DriverFixture fx;
  for (std::uint64_t i = 0; i < 100; ++i)
    fx.driver->submit({Request::Type::kWrite, (i % 64) * 4, 4, false, 0.0},
                      false);
  const auto& hist = fx.driver->latency_histogram();
  EXPECT_EQ(hist.total(), 100u);
  EXPECT_GT(hist.percentile(0.5), 0.0);
  EXPECT_GE(hist.percentile(0.99), hist.percentile(0.5));
}

TEST(Driver, IoErrorsSurfaceInMetrics) {
  nand::NandDevice dev(tiny_geo());
  ftl::CgmFtl::Config cfg;
  cfg.logical_sectors = 2048;
  ftl::CgmFtl ftl(dev, cfg);
  Driver driver(ftl, dev);
  driver.submit({Request::Type::kWrite, 0, 4, false, 0.0});
  dev.set_read_fault_injection(1.0, 7);
  const auto result = driver.submit({Request::Type::kRead, 0, 4, false, 0.0});
  EXPECT_FALSE(result.ok);
}

TEST(Driver, FlushDrainsBufferedFtl) {
  nand::NandDevice dev(tiny_geo());
  ftl::SubFtl::Config cfg;
  cfg.logical_sectors = 2048;
  ftl::SubFtl ftl(dev, cfg);
  Driver driver(ftl, dev);
  driver.submit({Request::Type::kWrite, 0, 4, false, 0.0});
  EXPECT_EQ(ftl.stats().flash_prog_full, 0u);  // still buffered
  driver.flush();
  EXPECT_EQ(ftl.stats().flash_prog_full, 1u);
}

TEST(Driver, ZeroQueueDepthClampedToOne) {
  DriverFixture fx(0);
  EXPECT_NO_THROW(
      fx.driver->submit({Request::Type::kWrite, 0, 4, false, 0.0}));
}

/// Fixed request sequence, for tests that need exact latency populations.
class FixedSource final : public workload::RequestSource {
 public:
  explicit FixedSource(std::vector<Request> requests)
      : requests_(std::move(requests)) {}
  std::optional<Request> next() override {
    if (next_ >= requests_.size()) return std::nullopt;
    return requests_[next_++];
  }

 private:
  std::vector<Request> requests_;
  std::size_t next_ = 0;
};

TEST(Driver, WarmupDoesNotPolluteMeasurePercentiles) {
  // Regression: RunMetrics percentiles were once computed over the
  // driver's CUMULATIVE histogram, so a slow warmup shifted the measured
  // run's percentiles. Two cleanly separable service-time populations:
  // warmup full-page programs (~1.6 ms) vs measured page reads (~150 us).
  DriverFixture fx(1);  // QD 1: service times are exact, no chip queueing
  std::vector<Request> warm, meas;
  for (int i = 0; i < 300; ++i)
    warm.push_back({Request::Type::kWrite, (i % 512) * 4ull, 4, false, 0.0});
  for (int i = 0; i < 100; ++i)
    meas.push_back({Request::Type::kRead, (i % 512) * 4ull, 4, false, 0.0});
  FixedSource warm_src(std::move(warm));
  FixedSource meas_src(std::move(meas));

  const auto warmup = fx.driver->run(warm_src, false);
  const auto measure = fx.driver->run(meas_src, false);
  // Each run's histogram holds exactly its own requests...
  EXPECT_EQ(warmup.latency_hist.total(), 300u);
  EXPECT_EQ(measure.latency_hist.total(), 100u);
  // ...so the 3x-larger millisecond-class warmup population cannot drag
  // the measured p50 out of its sub-200-us bucket.
  EXPECT_GT(warmup.latency_p50_us, 1000.0);
  EXPECT_LT(measure.latency_p50_us, 200.0);
}

TEST(Driver, RunReportsOnlyItsWindow) {
  // Regression: a window's FTL stats were the FTL's cumulative snapshot,
  // so a run after preconditioning counted the fill as its own traffic.
  DriverFixture fx;
  const nand::Geometry geo = tiny_geo();
  const std::uint32_t subs = geo.subpages_per_page;
  const std::uint64_t pages = fx.ftl->logical_sectors() / subs;
  // Fill the logical space five times over: more pages than the device
  // holds, so the fill itself erases blocks.
  for (int pass = 0; pass < 5; ++pass)
    for (std::uint64_t p = 0; p < pages; ++p)
      fx.driver->submit({Request::Type::kWrite, p * subs, subs, false, 0.0},
                        false);
  ASSERT_GT(fx.dev.counters().erases, 0u);

  const auto run_writes = [&](std::uint64_t writes) {
    std::vector<Request> reqs;
    for (std::uint64_t i = 0; i < writes; ++i)
      reqs.push_back(
          {Request::Type::kWrite, (i * 7 % pages) * subs, subs, false, 0.0});
    FixedSource src(std::move(reqs));
    return fx.driver->run(src, false);
  };
  const auto expect_window = [&](const RunMetrics& m, std::uint64_t writes) {
    EXPECT_EQ(m.ftl_stats.host_write_requests, writes);
    EXPECT_EQ(m.ftl_stats.host_write_sectors, writes * subs);
    EXPECT_EQ(m.erases_during_run, m.ftl_stats.flash_erases);
    EXPECT_LT(m.erases_during_run, m.device_erases);
    ASSERT_GT(m.elapsed_us(), 0.0);
    const double bytes =
        static_cast<double>(writes * subs * geo.subpage_bytes());
    const double secs = sim_time::to_seconds(m.elapsed_us());
    EXPECT_DOUBLE_EQ(m.host_mb_per_sec, bytes / (1024.0 * 1024.0) / secs);
    EXPECT_DOUBLE_EQ(m.overall_waf, m.ftl_stats.overall_waf(
                                        geo.page_bytes, geo.subpage_bytes()));
    EXPECT_EQ(m.chips, geo.total_chips());
    EXPECT_EQ(m.channels, geo.channels);
    EXPECT_GE(m.chip_util_min, 0.0);
    EXPECT_LE(m.chip_util_min, m.chip_util_mean);
    EXPECT_LE(m.chip_util_mean, m.chip_util_max);
    EXPECT_GT(m.chip_util_max, 0.0);
    EXPECT_GE(m.channel_util_min, 0.0);
    EXPECT_LE(m.channel_util_min, m.channel_util_mean);
    EXPECT_LE(m.channel_util_mean, m.channel_util_max);
    EXPECT_GT(m.channel_util_max, 0.0);
  };

  const RunMetrics first = run_writes(1500);
  EXPECT_GT(first.erases_during_run, 0u) << "window erased nothing";
  expect_window(first, 1500);
  // A second run reports only its own traffic, from where the first ended.
  const RunMetrics second = run_writes(500);
  expect_window(second, 500);
  EXPECT_EQ(second.start_us, first.end_us);
}

TEST(Driver, ResponseIncludesQueueingDelayUnderSaturation) {
  // Open-loop arrivals every 10 us against a ~1.6 ms full-page program on
  // a QD-1 window: the backlog grows linearly, so response time (arrival
  // -> done) diverges from service time (issue -> done) by design.
  DriverFixture fx(1);
  std::vector<Request> reqs(50, {Request::Type::kWrite, 0, 4, false, 10.0});
  FixedSource src(std::move(reqs));
  const auto m = fx.driver->run(src, false);
  EXPECT_GE(m.response_p50_us, m.latency_p50_us);
  EXPECT_GT(m.response_p99_us, m.latency_p99_us * 5.0);
  // Closed-loop (think 0) instead rides the window: response ~ service.
  DriverFixture closed(1);
  std::vector<Request> cl(50, {Request::Type::kWrite, 0, 4, false, 0.0});
  FixedSource cl_src(std::move(cl));
  const auto c = closed.driver->run(cl_src, false);
  EXPECT_GE(c.response_p99_us, c.latency_p99_us);
  EXPECT_LT(c.response_p99_us, c.latency_p99_us * 1.5);
}

struct BufferedRig {
  BufferedRig() : dev(tiny_geo()) {
    ftl::SubFtl::Config cfg;
    cfg.logical_sectors = 2048;
    ftl = std::make_unique<ftl::SubFtl>(dev, cfg);
    driver = std::make_unique<Driver>(*ftl, dev);
    driver->submit({Request::Type::kWrite, 0, 1, false, 0.0});
  }
  nand::NandDevice dev;
  std::unique_ptr<ftl::SubFtl> ftl;
  std::unique_ptr<Driver> driver;
};

TEST(Driver, FlushMatchesInStreamFlushRequest) {
  // Driver::flush() is routed through the submit path, so it must be
  // indistinguishable from an in-stream kFlush request: same clock, same
  // latency accounting, same FTL state.
  BufferedRig a;
  a.driver->flush();
  BufferedRig b;
  b.driver->submit({Request::Type::kFlush, 0, 0, false, 0.0}, false);

  EXPECT_EQ(a.driver->now(), b.driver->now());
  EXPECT_EQ(a.driver->latency_histogram().total(),
            b.driver->latency_histogram().total());
  EXPECT_EQ(a.driver->latency_histogram().percentile(0.99),
            b.driver->latency_histogram().percentile(0.99));
  EXPECT_EQ(a.ftl->stats().flash_prog_full, b.ftl->stats().flash_prog_full);
  EXPECT_EQ(a.ftl->stats().flash_prog_sub, b.ftl->stats().flash_prog_sub);
}

}  // namespace
}  // namespace esp::sim
