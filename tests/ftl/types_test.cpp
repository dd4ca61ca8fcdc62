#include "ftl/types.h"

#include <gtest/gtest.h>

#include <string>

namespace esp::ftl {
namespace {

TEST(Token, RoundTripsSectorAndVersion) {
  for (const std::uint64_t sector : {0ull, 1ull, 12345ull, (1ull << 30)}) {
    for (const std::uint64_t version : {1ull, 2ull, 999999ull}) {
      const auto token = make_token(sector, version);
      EXPECT_EQ(token_sector(token), sector);
      EXPECT_EQ(token_version(token), version);
      EXPECT_FALSE(token_empty(token));
    }
  }
}

TEST(Token, ZeroIsReservedForEmpty) {
  EXPECT_TRUE(token_empty(0));
  // Even version 0 of sector 0 is distinguishable from empty.
  EXPECT_FALSE(token_empty(make_token(0, 0)));
}

TEST(Token, DistinctVersionsDiffer) {
  EXPECT_NE(make_token(5, 1), make_token(5, 2));
  EXPECT_NE(make_token(5, 1), make_token(6, 1));
}

TEST(Token, VersionWrapsConsistently) {
  // Versions are stored modulo 2^24. FTLs and the driver both derive
  // tokens through make_token, so a wrap is consistent on both sides;
  // this test pins the masking behavior.
  EXPECT_EQ(make_token(5, (1ull << 24) + 3), make_token(5, 3));
  EXPECT_NE(make_token(5, (1ull << 24) - 1), make_token(5, 0));
}

TEST(FtlStats, SmallRequestWafDefaultsToOne) {
  FtlStats stats;
  EXPECT_DOUBLE_EQ(stats.avg_small_request_waf(), 1.0);
}

TEST(FtlStats, SmallRequestWafComputesRatio) {
  FtlStats stats;
  stats.small_write_bytes = 4096;
  stats.small_service_flash_bytes = 16384;
  EXPECT_DOUBLE_EQ(stats.avg_small_request_waf(), 4.0);
  stats.small_extra_flash_bytes = 4096;
  EXPECT_DOUBLE_EQ(stats.avg_small_request_waf(), 5.0);
}

TEST(FtlStats, OverallWafCountsBothProgramKinds) {
  FtlStats stats;
  stats.host_write_sectors = 8;          // 32 KB host data
  stats.flash_prog_full = 2;             // 32 KB
  stats.flash_prog_sub = 4;              // 16 KB
  EXPECT_DOUBLE_EQ(stats.overall_waf(16384, 4096), 48.0 / 32.0);
}

TEST(FtlStats, OverallWafOneWithoutWrites) {
  FtlStats stats;
  EXPECT_DOUBLE_EQ(stats.overall_waf(16384, 4096), 1.0);
}

TEST(StatsDelta, SubtractsEveryCounter) {
  FtlStats before;
  before.host_write_requests = 10;
  before.flash_prog_sub = 5;
  before.gc_invocations = 2;
  before.small_write_bytes = 4096;

  FtlStats after = before;
  after.host_write_requests = 25;
  after.flash_prog_sub = 11;
  after.gc_invocations = 3;
  after.small_write_bytes = 12288;
  after.forward_migrations = 7;

  const FtlStats delta = stats_delta(after, before);
  EXPECT_EQ(delta.host_write_requests, 15u);
  EXPECT_EQ(delta.flash_prog_sub, 6u);
  EXPECT_EQ(delta.gc_invocations, 1u);
  EXPECT_EQ(delta.small_write_bytes, 8192u);
  EXPECT_EQ(delta.forward_migrations, 7u);
  EXPECT_EQ(delta.host_read_requests, 0u);
}

TEST(StatsDelta, IdenticalSnapshotsGiveZeros) {
  FtlStats snapshot;
  snapshot.flash_erases = 42;
  const FtlStats delta = stats_delta(snapshot, snapshot);
  EXPECT_EQ(delta.flash_erases, 0u);
  EXPECT_EQ(delta.rmw_ops, 0u);
}

// Distinct non-zero values per field, so a field read through the wrong
// member cannot pass by accident.
FtlStats numbered_stats(std::uint64_t base) {
  FtlStats s;
  std::uint64_t v = base;
  for (const StatField& f : kStatFields) s.*f.member = v++;
  return s;
}

TEST(StatsDelta, SumOfDeltaRestoresEveryField) {
  const FtlStats before = numbered_stats(1000);
  FtlStats after = numbered_stats(5000);
  after.maint_gc_ns += 123;
  const FtlStats round = stats_sum(stats_delta(after, before), before);
  for (const StatField& f : kStatFields)
    EXPECT_EQ(round.*f.member, after.*f.member) << f.name;
}

TEST(SameSimulatedStats, EverySimulatedFieldCounts) {
  const FtlStats a = numbered_stats(1);
  EXPECT_TRUE(same_simulated_stats(a, a));
  std::size_t simulated = 0;
  for (const StatField& f : kStatFields) {
    FtlStats b = a;
    ++(b.*f.member);
    EXPECT_EQ(same_simulated_stats(a, b), f.measured) << f.name;
    if (!f.measured) ++simulated;
  }
  // 21 simulated counters; the 7 maint_* profile fields are measured.
  EXPECT_EQ(simulated, 21u);
}

TEST(SameSimulatedStats, MeasuredFieldsAreMaintProfile) {
  for (const StatField& f : kStatFields)
    EXPECT_EQ(f.measured, std::string(f.name).rfind("maint_", 0) == 0)
        << f.name;
}

}  // namespace
}  // namespace esp::ftl
