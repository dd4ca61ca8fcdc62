// Interplay tests: retention management, GC, forwarding and wear leveling
// acting on the same data over long simulated horizons -- the paths that
// only compose in full-system runs.
#include <gtest/gtest.h>

#include "core/ssd.h"
#include "ftl/sub_ftl.h"
#include "test_common.h"
#include "workload/request.h"

namespace esp {
namespace {

using workload::Request;

TEST(RetentionGcInterplay, ForwardedDataAgesFromItsNewProgramTime) {
  // Forwarding reprograms the subpage, which RESETS its retention clock at
  // the device (new written_at) -- and the pool must track that, otherwise
  // the retention scan would evict (or worse, miss) the wrong pages.
  auto config = test::tiny_config(core::FtlKind::kSub);
  config.retention_evict_age = 15 * sim_time::kDay;
  config.retention_scan_interval = sim_time::kDay;
  core::Ssd ssd(config);
  auto& drv = ssd.driver();

  // A persistent sector plus churn that forces level advances (forwarding
  // the persistent one) 10 days in.
  drv.submit({Request::Type::kWrite, 500, 1, true, 0.0});
  drv.advance_to(10 * sim_time::kDay);
  for (int i = 0; i < 400; ++i)
    drv.submit({Request::Type::kWrite,
                static_cast<std::uint64_t>((i * 4) % 400), 1, true, 0.0});

  // 10 more days: if forwarding reset the clock, sector 500 is ~10 days
  // old (young); if the FTL kept the ORIGINAL age it would be 20 days and
  // evicted. Either way the data must verify.
  for (int day = 0; day < 10; ++day)
    drv.submit({Request::Type::kWrite, 900, 1, true, sim_time::kDay});
  drv.submit({Request::Type::kRead, 500, 1, false, 0.0});
  EXPECT_EQ(drv.verify_failures(), 0u);
}

TEST(RetentionGcInterplay, EvictedDataSurvivesIndefinitely) {
  // Once retention-evicted to the full-page region, data follows the
  // 1-year horizon: another 6 months of aging must be harmless.
  auto config = test::tiny_config(core::FtlKind::kSub);
  config.retention_evict_age = 10 * sim_time::kDay;
  config.retention_scan_interval = sim_time::kDay;
  core::Ssd ssd(config);
  auto& drv = ssd.driver();

  for (std::uint64_t s = 0; s < 32; s += 4)
    drv.submit({Request::Type::kWrite, s, 1, true, 0.0});
  for (int day = 0; day < 20; ++day)
    drv.submit({Request::Type::kWrite, 2000, 1, true, sim_time::kDay});
  ASSERT_GT(ssd.ftl().stats().retention_evictions, 0u);

  drv.advance_to(drv.now() + 180 * sim_time::kDay);
  for (std::uint64_t s = 0; s < 32; s += 4) {
    const auto result =
        drv.submit({Request::Type::kRead, s, 1, false, 0.0});
    EXPECT_TRUE(result.ok) << "sector " << s;
  }
  EXPECT_EQ(drv.verify_failures(), 0u);
}

TEST(RetentionGcInterplay, ScanIntervalThrottlesScans) {
  // With a week-long scan interval, daily ticks must not run daily scans
  // (the flash read counter tells).
  auto config = test::tiny_config(core::FtlKind::kSub);
  config.retention_evict_age = 2 * sim_time::kDay;
  config.retention_scan_interval = 7 * sim_time::kDay;
  core::Ssd ssd(config);
  auto& drv = ssd.driver();

  for (std::uint64_t s = 0; s < 16; s += 4)
    drv.submit({Request::Type::kWrite, s, 1, true, 0.0});
  // 6 days of ticks: under a 7-day interval at most one scan can fire,
  // so at most one wave of retention evictions.
  const auto evicted_before = ssd.ftl().stats().retention_evictions;
  for (int day = 0; day < 6; ++day)
    drv.submit({Request::Type::kWrite, 3000, 1, true, sim_time::kDay});
  const auto evicted = ssd.ftl().stats().retention_evictions -
                       evicted_before;
  EXPECT_LE(evicted, 4u);  // the first wave only (sectors aged > 2 days)
}

TEST(RetentionGcInterplay, GcDuringAgedDataDoesNotLoseIt) {
  // Aged-but-not-yet-scanned data hit by GC first: the GC read happens
  // before the retention deadline (device-enforced), and the move
  // refreshes it. End-to-end: no verify failures even when GC and the
  // retention scan interleave for weeks.
  auto config = test::tiny_config(core::FtlKind::kSub);
  config.retention_evict_age = 12 * sim_time::kDay;
  config.retention_scan_interval = 3 * sim_time::kDay;
  core::Ssd ssd(config);
  auto& drv = ssd.driver();

  for (int week = 0; week < 8; ++week) {
    // Burst of churn, then a quiet week.
    for (int i = 0; i < 600; ++i)
      drv.submit({Request::Type::kWrite,
                  static_cast<std::uint64_t>((i * 13) % 512), 1, true, 0.0});
    drv.submit({Request::Type::kWrite, 4000, 1, true, 7 * sim_time::kDay});
  }
  for (std::uint64_t s = 0; s < 512; s += 16)
    drv.submit({Request::Type::kRead, s, 4, false, 0.0});
  EXPECT_EQ(drv.verify_failures(), 0u);
}

}  // namespace
}  // namespace esp
