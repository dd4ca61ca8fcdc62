// Property-based sweeps: invariants that must hold for every FTL across a
// grid of workload shapes and seeds (parameterized gtest).
//
// Invariants checked after every run:
//   P1  no verify failures (latest-write-wins data integrity)
//   P2  overall WAF >= 1 whenever host writes occurred
//   P3  small-request WAF >= 1
//   P4  device program/erase accounting is self-consistent
//   P5  simulated time moved forward
#include <gtest/gtest.h>

#include <tuple>

#include "core/ssd.h"
#include "ftl/sub_ftl.h"
#include "test_common.h"
#include "workload/synthetic.h"

namespace esp {
namespace {

using core::FtlKind;

using PropertyParams =
    std::tuple<FtlKind, double /*r_small*/, double /*r_synch*/,
               std::uint64_t /*seed*/>;

class FtlProperties : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(FtlProperties, InvariantsHoldUnderChurn) {
  const auto [kind, r_small, r_synch, seed] = GetParam();
  core::Ssd ssd(test::tiny_config(kind));
  ssd.precondition(1.0);

  workload::SyntheticParams params;
  params.footprint_sectors = ssd.logical_sectors();
  params.request_count = 6000;
  params.r_small = r_small;
  params.r_synch = r_synch;
  params.read_fraction = 0.25;
  params.trim_fraction = 0.03;  // exercise discard paths under churn
  params.large_align_prob = 0.7;
  params.seed = seed;
  workload::SyntheticWorkload stream(params);

  const auto metrics = ssd.driver().run(stream, /*verify=*/true);

  // P1: end-to-end integrity.
  EXPECT_EQ(metrics.verify_failures, 0u);
  EXPECT_EQ(metrics.io_errors, 0u);

  // P2/P3: write amplification over the device's life (fill included)
  // can never be below 1.
  const auto& geo = ssd.config().geometry;
  const ftl::FtlStats& total = ssd.ftl().stats();
  EXPECT_GE(total.overall_waf(geo.page_bytes, geo.subpage_bytes()),
            1.0 - 1e-9);
  EXPECT_GE(total.avg_small_request_waf(), 1.0 - 1e-9);

  // P4: device counter consistency -- programs happened, and erase count
  // matches the FTL's own tally, over the device's life and the window.
  const auto& dev = ssd.device().counters();
  EXPECT_EQ(dev.erases, total.flash_erases);
  EXPECT_EQ(metrics.erases_during_run, metrics.ftl_stats.flash_erases);
  EXPECT_GT(dev.progs_full + dev.progs_sub, 0u);

  // P5: the clock advanced.
  EXPECT_GT(metrics.elapsed_us(), 0.0);

  // Post-run full readback still verifies (GC/evictions preserved data).
  auto& drv = ssd.driver();
  for (std::uint64_t s = 0; s < ssd.logical_sectors(); s += 8)
    drv.submit({workload::Request::Type::kRead, s,
                static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(8, ssd.logical_sectors() - s)),
                false, 0.0});
  EXPECT_EQ(drv.verify_failures(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FtlProperties,
    ::testing::Combine(::testing::Values(FtlKind::kCgm, FtlKind::kFgm,
                                         FtlKind::kSub,
                                         FtlKind::kSectorLog),
                       ::testing::Values(0.0, 0.5, 1.0),
                       ::testing::Values(0.0, 1.0),
                       ::testing::Values(17ull, 99ull)),
    [](const auto& info) {
      return core::ftl_kind_name(std::get<0>(info.param)) + "_small" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             "_sync" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100)) +
             "_seed" + std::to_string(std::get<3>(info.param));
    });

// subFTL-specific structural invariants.
class SubFtlStructure : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SubFtlStructure, RegionQuotaAndHashBoundsHold) {
  auto cfg = test::tiny_config(FtlKind::kSub);
  core::Ssd ssd(cfg);
  ssd.precondition(1.0);

  workload::SyntheticParams params;
  params.footprint_sectors = ssd.logical_sectors();
  params.request_count = 8000;
  params.r_small = 0.9;
  params.r_synch = 1.0;
  params.seed = GetParam();
  workload::SyntheticWorkload stream(params);
  const auto metrics = ssd.driver().run(stream, true);
  ASSERT_EQ(metrics.verify_failures, 0u);

  const auto& sub = dynamic_cast<const ftl::SubFtl&>(ssd.ftl());
  const auto& geo = ssd.config().geometry;
  // Region quota respected (a transient +reserve during GC is allowed, but
  // at rest the region must be at or under quota).
  EXPECT_LE(sub.subpage_pool().blocks_in_use(),
            sub.subpage_pool().config().quota_blocks +
                ssd.config().gc_reserve_blocks);
  // Paper Sec. 4.2: at most one valid subpage per physical page, so the
  // hash can never exceed the region's page count.
  const std::uint64_t region_pages =
      sub.subpage_pool().blocks_in_use() * geo.pages_per_block;
  EXPECT_LE(sub.subpage_mapping_entries(), region_pages);
  EXPECT_EQ(sub.subpage_pool().valid_sectors(),
            sub.subpage_mapping_entries());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubFtlStructure,
                         ::testing::Values(1ull, 23ull, 456ull, 7890ull));

}  // namespace
}  // namespace esp
