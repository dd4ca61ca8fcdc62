// FTL interface contract: behaviors every implementation must share,
// parameterized over all four FTLs.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/ssd.h"
#include "test_common.h"

namespace esp {
namespace {

using core::FtlKind;
using workload::Request;

class FtlContract : public ::testing::TestWithParam<FtlKind> {
 protected:
  core::Ssd ssd_{test::tiny_config(GetParam())};
};

TEST_P(FtlContract, NameAndCapacityExposed) {
  EXPECT_FALSE(ssd_.ftl().name().empty());
  EXPECT_GT(ssd_.ftl().logical_sectors(), 0u);
  EXPECT_GT(ssd_.ftl().mapping_memory_bytes(), 0u);
}

TEST_P(FtlContract, WriteThenReadReturnsLatestVersion) {
  auto& drv = ssd_.driver();
  drv.submit({Request::Type::kWrite, 8, 4, true, 0.0});
  drv.submit({Request::Type::kWrite, 9, 1, true, 0.0});  // overwrite middle
  drv.submit({Request::Type::kRead, 8, 4, false, 0.0});
  EXPECT_EQ(drv.verify_failures(), 0u);
}

TEST_P(FtlContract, FlushIsIdempotent) {
  auto& drv = ssd_.driver();
  drv.submit({Request::Type::kWrite, 0, 2, false, 0.0});
  drv.flush();
  const auto progs =
      ssd_.ftl().stats().flash_prog_full + ssd_.ftl().stats().flash_prog_sub;
  drv.flush();
  drv.flush();
  EXPECT_EQ(ssd_.ftl().stats().flash_prog_full +
                ssd_.ftl().stats().flash_prog_sub,
            progs);
}

TEST_P(FtlContract, SyncWritesAreDurableImmediately) {
  auto& drv = ssd_.driver();
  drv.submit({Request::Type::kWrite, 16, 1, true, 0.0});
  // Durable = on flash, not just buffered.
  EXPECT_GT(ssd_.ftl().stats().flash_prog_full +
                ssd_.ftl().stats().flash_prog_sub,
            0u);
}

TEST_P(FtlContract, AlignedTrimThenReadIsEmpty) {
  auto& drv = ssd_.driver();
  drv.submit({Request::Type::kWrite, 0, 4, true, 0.0});
  drv.submit({Request::Type::kTrim, 0, 4, false, 0.0});
  drv.submit({Request::Type::kRead, 0, 4, false, 0.0});
  EXPECT_EQ(drv.verify_failures(), 0u);  // driver expects empty after trim
}

TEST_P(FtlContract, RewriteAfterTrimWorks) {
  auto& drv = ssd_.driver();
  drv.submit({Request::Type::kWrite, 0, 4, true, 0.0});
  drv.submit({Request::Type::kTrim, 0, 4, false, 0.0});
  drv.submit({Request::Type::kWrite, 1, 1, true, 0.0});
  drv.submit({Request::Type::kRead, 0, 4, false, 0.0});
  EXPECT_EQ(drv.verify_failures(), 0u);
}

TEST_P(FtlContract, OutOfRangeAccessesThrow) {
  auto& ftl = ssd_.ftl();
  const auto sectors = ftl.logical_sectors();
  EXPECT_THROW(ftl.write(sectors, 1, false, 0.0), std::out_of_range);
  EXPECT_THROW(ftl.write(sectors - 1, 2, false, 0.0), std::out_of_range);
  EXPECT_THROW(ftl.read(sectors, 1, 0.0, nullptr), std::out_of_range);
  EXPECT_THROW(ftl.write(0, 0, false, 0.0), std::out_of_range);
  EXPECT_THROW(ftl.trim(sectors, 1), std::out_of_range);
}

TEST_P(FtlContract, RejectsWrappingRanges) {
  // sector + count wraps past 2^64 here; a range check written as
  // `sector + count > logical_sectors` would accept these and index the
  // mapping out of bounds.
  auto& ftl = ssd_.ftl();
  const auto sectors = ftl.logical_sectors();
  for (const std::uint64_t start : {UINT64_MAX, UINT64_MAX - 2, sectors}) {
    SCOPED_TRACE(start);
    EXPECT_THROW(ftl.read(start, 2, 0.0, nullptr), std::out_of_range);
    EXPECT_THROW(ftl.write(start, 4, false, 0.0), std::out_of_range);
    EXPECT_THROW(ftl.trim(start, 4), std::out_of_range);
  }
  EXPECT_EQ(ftl.stats().host_read_requests, 0u);
  EXPECT_EQ(ftl.stats().host_write_requests, 0u);
}

TEST_P(FtlContract, CompletionTimesAreCausal) {
  auto& ftl = ssd_.ftl();
  const auto first = ftl.write(0, 4, true, 1000.0);
  EXPECT_GT(first.done, 1000.0);
  const auto second = ftl.write(4, 4, true, first.done);
  EXPECT_GT(second.done, first.done);
}

TEST_P(FtlContract, StatsAreMonotone) {
  auto& drv = ssd_.driver();
  const auto before = ssd_.ftl().stats();
  drv.submit({Request::Type::kWrite, 0, 4, true, 0.0});
  drv.submit({Request::Type::kRead, 0, 4, false, 0.0});
  const auto after = ssd_.ftl().stats();
  EXPECT_GE(after.host_write_requests, before.host_write_requests + 1);
  EXPECT_GE(after.host_read_requests, before.host_read_requests + 1);
  // Delta must not underflow anywhere.
  const auto delta = ftl::stats_delta(after, before);
  EXPECT_LE(delta.host_write_requests, 10u);
}

INSTANTIATE_TEST_SUITE_P(AllFtls, FtlContract,
                         ::testing::Values(FtlKind::kCgm, FtlKind::kFgm,
                                           FtlKind::kSub,
                                           FtlKind::kSectorLog),
                         [](const auto& info) {
                           return core::ftl_kind_name(info.param);
                         });

}  // namespace
}  // namespace esp
