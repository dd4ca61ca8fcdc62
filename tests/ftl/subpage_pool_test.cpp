// Direct unit tests of the ESP subpage pool: level-ordered writing,
// forwarding, hot/cold GC with batched eviction, retention scanning,
// idle-block release, and the pool's own sector map and hot bits with
// their snapshot checks.
#include "ftl/subpage_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>
#include <string>
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

constexpr std::uint64_t kSectors = 128;

/// Stands in for the full-page region: records which sectors arrive, split
/// by whether the pool counted them as retention or GC (cold) evictions.
struct RecordingTarget final : EvictionTarget {
  explicit RecordingTarget(const FtlStats& stats) : stats(stats) {}
  SimTime merge_sectors(std::span<const SectorWrite> batch,
                        SimTime now) override {
    ++calls;
    EXPECT_FALSE(batch.empty());
    const bool retention = stats.retention_evictions != retention_seen;
    retention_seen = stats.retention_evictions;
    for (const auto& sw : batch)
      (retention ? retention_evicted : cold_evicted).insert(sw.sector);
    return now + 1.0;
  }
  const FtlStats& stats;
  std::uint64_t retention_seen = 0;
  int calls = 0;
  std::set<std::uint64_t> cold_evicted;
  std::set<std::uint64_t> retention_evicted;
};

struct PoolFixture {
  explicit PoolFixture(SubpagePool::Config config = pool_config(6))
      : dev(tiny_geo()), allocator(tiny_geo()), target(stats) {
    pool = std::make_unique<SubpagePool>(dev, allocator, config, stats,
                                         kSectors, target);
  }

  SimTime write(std::uint64_t sector, SimTime now) {
    return pool->try_write_sector(sector, sector + 5000, now).value();
  }
  bool mapped(std::uint64_t sector) const {
    return pool->subpage_of(sector) != nand::kUnmapped;
  }
  nand::SubpageAddr where(std::uint64_t sector) const {
    return nand::AddressCodec(tiny_geo()).decode_subpage(
        pool->subpage_of(sector));
  }

  nand::NandDevice dev;
  BlockAllocator allocator;
  FtlStats stats;
  RecordingTarget target;
  std::unique_ptr<SubpagePool> pool;
};

TEST(SubpagePool, FirstWritesLandInSlotZero) {
  PoolFixture fx;
  SimTime now = 0.0;
  for (std::uint64_t s = 0; s < 8; ++s) now = fx.write(s, now);
  for (std::uint64_t s = 0; s < 8; ++s)
    EXPECT_EQ(fx.where(s).slot, 0u) << "sector " << s;
  EXPECT_EQ(fx.stats.flash_prog_sub, 8u);
}

TEST(SubpagePool, WritesAlternateChips) {
  PoolFixture fx;
  SimTime now = 0.0;
  now = fx.write(0, now);
  now = fx.write(1, now);
  EXPECT_NE(fx.where(0).page.chip, fx.where(1).page.chip);
}

TEST(SubpagePool, LevelsAdvanceAfterSlotZeroExhausts) {
  PoolFixture fx;
  SimTime now = 0.0;
  // Quota 6 blocks x 4 pages = 24 slot-0 slots; keep everything invalid by
  // rewriting a single hot sector, forcing level advances without
  // forwarding cost.
  for (int i = 0; i < 60; ++i) now = fx.write(7, now);
  // After 60 writes into 24 pages the pool must have reused pages at
  // higher slots.
  EXPECT_GT(fx.where(7).slot, 0u);
  EXPECT_EQ(fx.pool->valid_sectors(), 1u);
}

TEST(SubpagePool, ForwardingPreservesDataAcrossLevels) {
  PoolFixture fx;
  SimTime now = 0.0;
  // One persistent sector + churn that exhausts slot 0 everywhere.
  now = fx.write(99, now);
  for (int i = 0; i < 80; ++i) now = fx.write(i % 7, now);
  // Sector 99 must still be mapped and readable with its token.
  ASSERT_TRUE(fx.mapped(99) || fx.target.cold_evicted.contains(99));
  if (fx.mapped(99)) {
    const auto ack = fx.dev.read_subpage(fx.where(99), now);
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
  EXPECT_FALSE(fx.target.cold_evicted.empty());
  for (std::uint64_t s = 4; s < 8; ++s)
    EXPECT_TRUE(fx.mapped(s) || fx.target.cold_evicted.contains(s))
        << "sector " << s << " lost";
  EXPECT_GT(fx.stats.gc_invocations, 0u);
}

TEST(SubpagePool, EvictionBatchesArriveSorted) {
  // (Indirectly: the fixture records sets; here we check the pool calls
  // the eviction target at most once per GC pass by counting calls.)
  PoolFixture fx(pool_config(4));
  SimTime now = 0.0;
  // Drop before every rewrite: no sector turns hot, everything is cold.
  for (std::uint64_t s = 0; s < 120; ++s) {
    fx.pool->drop(s % 40);
    now = fx.pool->try_write_sector(s % 40, s, now).value();
  }
  EXPECT_GT(fx.stats.cold_evictions, 0u);
  EXPECT_LE(fx.target.calls, static_cast<int>(fx.stats.gc_invocations));
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
  EXPECT_TRUE(fx.target.retention_evicted.contains(1));
  EXPECT_FALSE(fx.target.retention_evicted.contains(2));
  EXPECT_FALSE(fx.mapped(1));
  EXPECT_TRUE(fx.mapped(2));
  EXPECT_EQ(fx.stats.retention_evictions, 1u);
}

TEST(SubpagePool, ReleaseIdleBlocksReturnsGarbageOnlyBlocks) {
  PoolFixture fx;
  SimTime now = 0.0;
  // Fill some blocks then invalidate everything.
  for (std::uint64_t s = 0; s < 16; ++s) now = fx.write(s, now);
  const auto blocks_before = fx.pool->blocks_in_use();
  for (std::uint64_t s = 0; s < 16; ++s) fx.pool->drop(s);
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

/// Saves `fx`'s device and pool, lets `edit` patch the bytes, and loads
/// them into a fresh fixture (device first: the pool checks its map
/// against the programmed slots).
template <typename Edit>
void reload(const PoolFixture& fx, Edit&& edit) {
  std::stringstream out;
  util::StateWriter w(out);
  fx.dev.save_state(w);
  fx.pool->save_state(w);
  std::string bytes = out.str();
  edit(bytes);
  PoolFixture fresh;
  std::istringstream in(bytes);
  util::StateReader r(in);
  fresh.dev.load_state(r);
  fresh.pool->load_state(r);
}

/// Overwrites map entry `sector` (the map is the section's last array).
void set_entry(std::string& bytes, std::uint64_t sector, std::uint64_t lin) {
  std::memcpy(&bytes[bytes.size() - (kSectors - sector) * sizeof lin], &lin,
              sizeof lin);
}

void expect_load_error(const PoolFixture& fx, std::uint64_t sector,
                       std::uint64_t lin, const std::string& what) {
  try {
    reload(fx, [&](std::string& bytes) { set_entry(bytes, sector, lin); });
    FAIL() << "accepted subpage " << lin << " for sector " << sector;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(SubpagePool, LoadRejectsStaleSlotPointer) {
  PoolFixture fx;
  SimTime now = 0.0;
  // Two rewrites of sector 5 on a 6-block region: the live copy moves, and
  // with slot 0 of every page used up it lands in a higher ESP slot.
  for (int i = 0; i < 60; ++i) now = fx.write(5, now);
  now = fx.write(6, now);
  const nand::SubpageAddr live = fx.where(5);
  ASSERT_GT(live.slot, 0u);
  EXPECT_NO_THROW(reload(fx, [](std::string&) {}));
  // The same page's superseded slot: the owner matches, the ESP slot not.
  const nand::AddressCodec codec(tiny_geo());
  const nand::SubpageAddr stale{live.page, live.slot - 1};
  expect_load_error(fx, 5, codec.encode_subpage(stale),
                    "maps a superseded subpage");
  // Another sector's subpage, and a live sector dropped from the map.
  expect_load_error(fx, 5, fx.pool->subpage_of(6), "key 5 maps a slot");
  expect_load_error(fx, 9, fx.pool->subpage_of(6), "key 9 maps a slot");
  expect_load_error(fx, 5, nand::kUnmapped, "1 keys mapped, 2 slots valid");
}

TEST(SubpagePool, HotBitFollowsRegionResidency) {
  PoolFixture fx;
  SimTime now = 0.0;
  now = fx.write(1, now);
  EXPECT_FALSE(fx.pool->hot(1)) << "first entry into the region is cold";
  now = fx.write(1, now);
  EXPECT_TRUE(fx.pool->hot(1)) << "overwriting a resident sector";
  fx.pool->drop(1);
  EXPECT_FALSE(fx.pool->hot(1)) << "dropped";
  now = fx.write(1, now);
  EXPECT_FALSE(fx.pool->hot(1)) << "re-entered after a drop";

  // Eviction clears it: a hot sector that ages out.
  now = fx.write(2, now);
  now = fx.write(2, now);
  ASSERT_TRUE(fx.pool->hot(2));
  fx.pool->retention_scan(now + 20 * sim_time::kDay);
  EXPECT_TRUE(fx.target.retention_evicted.contains(2));
  EXPECT_FALSE(fx.mapped(2));
  EXPECT_FALSE(fx.pool->hot(2)) << "evicted";
  // A hot bit with no mapping is refused on load.
  try {
    reload(fx, [&](std::string& bytes) {
      // Hot bits: u64 count + one byte per sector, just before the map's
      // u64 count + entries.
      bytes[bytes.size() - kSectors * 8 - 8 - kSectors + 2] = 1;
    });
    FAIL() << "accepted a hot bit on an unmapped sector";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("hot bit on unmapped sector 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(SubpagePool, GcKeepClearsHotBit) {
  PoolFixture fx;
  SimTime now = 0.0;
  // Sectors 0 and 1 turn hot; 2 and 3 are dropped, so the two blocks
  // holding 0 and 1 keep one valid subpage each -- emptier than the blocks
  // a 12-sector churn fills, so GC comes for them.
  for (std::uint64_t s = 0; s < 4; ++s) now = fx.write(s, now);
  for (std::uint64_t s = 0; s < 2; ++s) now = fx.write(s, now);
  fx.pool->drop(2);
  fx.pool->drop(3);
  std::vector<nand::PageAddr> home(2);
  for (std::uint64_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(fx.pool->hot(s));
    home[s] = fx.where(s).page;
  }
  // Forwarding moves data within its page; only a GC keep moves it to
  // another block.
  const auto kept_by_gc = [&](std::uint64_t s) {
    return fx.mapped(s) && (fx.where(s).page.chip != home[s].chip ||
                            fx.where(s).page.block != home[s].block);
  };
  std::uint64_t kept = 2;
  for (int i = 0; i < 2000 && kept == 2; ++i) {
    now = fx.write(100 + static_cast<std::uint64_t>(i % 12), now);
    for (std::uint64_t s = 0; s < 2 && kept == 2; ++s)
      if (kept_by_gc(s)) kept = s;
  }
  ASSERT_LT(kept, 2u) << "GC kept neither hot sector";
  // The keep updated the pool's map, and the sector must be updated again
  // to stay hot.
  EXPECT_FALSE(fx.pool->hot(kept));
  const auto ack = fx.dev.read_subpage(fx.where(kept), now);
  EXPECT_EQ(ack.token, kept + 5000);
}

TEST(SubpagePool, ZeroQuotaRejected) {
  nand::NandDevice dev(tiny_geo());
  BlockAllocator allocator(tiny_geo());
  FtlStats stats;
  RecordingTarget target(stats);
  EXPECT_THROW(SubpagePool(dev, allocator, pool_config(0), stats, kSectors,
                           target),
               std::invalid_argument);
}

}  // namespace
}  // namespace esp::ftl
