// Direct unit tests of the ESP subpage pool: level-ordered writing,
// forwarding, hot/cold GC with batched eviction, retention scanning,
// idle-block release.
#include "ftl/subpage_pool.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "ftl/block_allocator.h"
#include "nand/device.h"

namespace esp::ftl {
namespace {

nand::Geometry tiny_geo() {
  nand::Geometry geo;
  geo.channels = 2;
  geo.chips_per_channel = 1;
  geo.blocks_per_chip = 8;
  geo.pages_per_block = 4;
  geo.page_bytes = 16 * 1024;
  geo.subpages_per_page = 4;
  return geo;
}

SubpagePool::Config pool_config(std::uint64_t quota_blocks) {
  SubpagePool::Config config;
  config.quota_blocks = quota_blocks;
  config.reserve_free_blocks = 2;
  return config;
}

struct PoolFixture {
  explicit PoolFixture(SubpagePool::Config config = pool_config(6))
      : dev(tiny_geo()), allocator(tiny_geo()) {
    pool = std::make_unique<SubpagePool>(
        dev, allocator, config, stats,
        [this](std::uint64_t sector, std::uint64_t new_lin) {
          mapping[sector] = new_lin;
        },
        [this](std::span<const SectorWrite> batch, SimTime now,
               bool retention) {
          for (const auto& sw : batch) {
            (retention ? retention_evicted : cold_evicted).insert(sw.sector);
            mapping.erase(sw.sector);
          }
          return now + 1.0;
        },
        [this](std::uint64_t sector) { return hot.contains(sector); },
        [this](std::uint64_t sector) { hot.erase(sector); });
  }

  SimTime write(std::uint64_t sector, SimTime now) {
    const auto it = mapping.find(sector);
    if (it != mapping.end()) {
      pool->invalidate(it->second);
      mapping.erase(it);
      hot.insert(sector);
    }
    return pool->write_sector(sector, sector + 5000, now).second;
  }

  nand::NandDevice dev;
  BlockAllocator allocator;
  FtlStats stats;
  std::map<std::uint64_t, std::uint64_t> mapping;
  std::set<std::uint64_t> hot;
  std::set<std::uint64_t> cold_evicted;
  std::set<std::uint64_t> retention_evicted;
  std::unique_ptr<SubpagePool> pool;
};

TEST(SubpagePool, FirstWritesLandInSlotZero) {
  PoolFixture fx;
  SimTime now = 0.0;
  for (std::uint64_t s = 0; s < 8; ++s) now = fx.write(s, now);
  const nand::AddressCodec codec(tiny_geo());
  for (std::uint64_t s = 0; s < 8; ++s)
    EXPECT_EQ(codec.decode_subpage(fx.mapping[s]).slot, 0u) << "sector " << s;
  EXPECT_EQ(fx.stats.flash_prog_sub, 8u);
}

TEST(SubpagePool, WritesAlternateChips) {
  PoolFixture fx;
  SimTime now = 0.0;
  now = fx.write(0, now);
  now = fx.write(1, now);
  const nand::AddressCodec codec(tiny_geo());
  EXPECT_NE(codec.decode_subpage(fx.mapping[0]).page.chip,
            codec.decode_subpage(fx.mapping[1]).page.chip);
}

TEST(SubpagePool, LevelsAdvanceAfterSlotZeroExhausts) {
  PoolFixture fx;
  SimTime now = 0.0;
  // Quota 6 blocks x 4 pages = 24 slot-0 slots; keep everything invalid by
  // rewriting a single hot sector, forcing level advances without
  // forwarding cost.
  for (int i = 0; i < 60; ++i) now = fx.write(7, now);
  const nand::AddressCodec codec(tiny_geo());
  // After 60 writes into 24 pages the pool must have reused pages at
  // higher slots.
  EXPECT_GT(codec.decode_subpage(fx.mapping[7]).slot, 0u);
  EXPECT_EQ(fx.pool->valid_sectors(), 1u);
}

TEST(SubpagePool, ForwardingPreservesDataAcrossLevels) {
  PoolFixture fx;
  SimTime now = 0.0;
  // One persistent sector + churn that exhausts slot 0 everywhere.
  now = fx.write(99, now);
  for (int i = 0; i < 80; ++i) now = fx.write(i % 7, now);
  // Sector 99 must still be mapped and readable with its token.
  ASSERT_TRUE(fx.mapping.contains(99) || fx.cold_evicted.contains(99));
  if (fx.mapping.contains(99)) {
    const nand::AddressCodec codec(tiny_geo());
    const auto ack =
        fx.dev.read_subpage(codec.decode_subpage(fx.mapping[99]), now);
    EXPECT_EQ(ack.status, nand::ReadStatus::kOk);
    EXPECT_EQ(ack.token, 99u + 5000u);
  }
}

TEST(SubpagePool, GcSplitsHotAndCold) {
  PoolFixture fx;
  SimTime now = 0.0;
  // Make sectors 0..7 resident; mark 0..3 hot (rewrite once); then churn a
  // disjoint range to force GC.
  for (std::uint64_t s = 0; s < 8; ++s) now = fx.write(s, now);
  for (std::uint64_t s = 0; s < 4; ++s) now = fx.write(s, now);  // hot now
  for (int i = 0; i < 120; ++i) now = fx.write(100 + (i % 5), now);
  // Cold sectors 4..7 must have been evicted; hot ones either still mapped
  // or (after several GC encounters with the hot flag reset) also evicted
  // -- but SOME eviction must have happened and no data may be lost.
  EXPECT_FALSE(fx.cold_evicted.empty());
  for (std::uint64_t s = 4; s < 8; ++s)
    EXPECT_TRUE(fx.mapping.contains(s) || fx.cold_evicted.contains(s))
        << "sector " << s << " lost";
  EXPECT_GT(fx.stats.gc_invocations, 0u);
}

TEST(SubpagePool, EvictionBatchesArriveSorted) {
  // (Indirectly: the fixture records sets; here we check the pool calls
  // the eviction callback at most once per GC pass by counting calls.)
  int calls = 0;
  nand::NandDevice dev(tiny_geo());
  BlockAllocator allocator(tiny_geo());
  FtlStats stats;
  std::map<std::uint64_t, std::uint64_t> mapping;
  SubpagePool pool(
      dev, allocator, pool_config(4), stats,
      [&](std::uint64_t sector, std::uint64_t lin) { mapping[sector] = lin; },
      [&](std::span<const SectorWrite> batch, SimTime now, bool) {
        ++calls;
        EXPECT_FALSE(batch.empty());
        for (const auto& sw : batch) mapping.erase(sw.sector);
        return now;
      },
      [](std::uint64_t) { return false; },  // everything cold
      [](std::uint64_t) {});
  SimTime now = 0.0;
  for (std::uint64_t s = 0; s < 120; ++s) {
    if (mapping.contains(s % 40)) {
      pool.invalidate(mapping[s % 40]);
      mapping.erase(s % 40);
    }
    now = pool.write_sector(s % 40, s, now).second;
  }
  EXPECT_GT(stats.cold_evictions, 0u);
  EXPECT_LE(calls, static_cast<int>(stats.gc_invocations));
}

TEST(SubpagePool, RetentionScanEvictsOnlyAgedData) {
  PoolFixture fx;
  SimTime now = 0.0;
  now = fx.write(1, now);
  // 20 days later write sector 2, then scan at day 20: sector 1 (age 20d)
  // exceeds the 15-day threshold, sector 2 (age 0) does not.
  now += 20 * sim_time::kDay;
  now = fx.write(2, now);
  fx.pool->retention_scan(now);
  EXPECT_TRUE(fx.retention_evicted.contains(1));
  EXPECT_FALSE(fx.retention_evicted.contains(2));
  EXPECT_EQ(fx.stats.retention_evictions, 1u);
}

TEST(SubpagePool, ReleaseIdleBlocksReturnsGarbageOnlyBlocks) {
  PoolFixture fx;
  SimTime now = 0.0;
  // Fill some blocks then invalidate everything.
  for (std::uint64_t s = 0; s < 16; ++s) now = fx.write(s, now);
  const auto blocks_before = fx.pool->blocks_in_use();
  for (std::uint64_t s = 0; s < 16; ++s) {
    fx.pool->invalidate(fx.mapping[s]);
    fx.mapping.erase(s);
  }
  const auto free_before = fx.allocator.total_free();
  fx.pool->release_idle_blocks(now);
  // Non-active garbage-only blocks are erased and released; the per-chip
  // active blocks stay.
  EXPECT_LT(fx.pool->blocks_in_use(), blocks_before);
  EXPECT_GT(fx.allocator.total_free(), free_before);
}

TEST(SubpagePool, QuotaRespectedAtRest) {
  PoolFixture fx;
  SimTime now = 0.0;
  for (int i = 0; i < 300; ++i) now = fx.write(i % 30, now);
  EXPECT_LE(fx.pool->blocks_in_use(), 6u + 1u);  // quota + GC transient
}

TEST(SubpagePool, InvalidateRejectsStaleSlotPointer) {
  PoolFixture fx;
  SimTime now = 0.0;
  now = fx.write(5, now);
  const auto stale = fx.mapping[5];
  // Rewrite: the pool's live copy moves; the stale address must be refused
  // (its page-level bookkeeping was already cleared by our write helper).
  now = fx.write(5, now);
  EXPECT_THROW(fx.pool->invalidate(stale), std::logic_error);
}

TEST(SubpagePool, RequiresAllCallbacks) {
  nand::NandDevice dev(tiny_geo());
  BlockAllocator allocator(tiny_geo());
  FtlStats stats;
  EXPECT_THROW(SubpagePool(dev, allocator, pool_config(2), stats, nullptr,
                           nullptr, nullptr, nullptr),
               std::invalid_argument);
}

TEST(SubpagePool, ZeroQuotaRejected) {
  nand::NandDevice dev(tiny_geo());
  BlockAllocator allocator(tiny_geo());
  FtlStats stats;
  EXPECT_THROW(
      SubpagePool(
          dev, allocator, pool_config(0), stats,
          [](std::uint64_t, std::uint64_t) {},
          [](std::span<const SectorWrite>, SimTime now, bool) { return now; },
          [](std::uint64_t) { return false; }, [](std::uint64_t) {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace esp::ftl
