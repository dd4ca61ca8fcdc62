// Direct unit tests of the full-page (CGM) storage pool: allocation,
// striping, validity accounting, GC victim choice, quota behavior.
#include "ftl/fullpage_pool.h"

#include <gtest/gtest.h>

#include <map>
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

struct PoolFixture {
  explicit PoolFixture(FullPagePool::Config config = {{~0ull, 2}})
      : dev(tiny_geo()), allocator(tiny_geo()) {
    pool = std::make_unique<FullPagePool>(
        dev, allocator, config, stats,
        [this](std::uint64_t lpn, std::uint64_t new_lin) {
          relocations[lpn] = new_lin;
          mapping[lpn] = new_lin;
        });
  }

  std::pair<std::uint64_t, SimTime> write(std::uint64_t lpn, SimTime now) {
    const std::vector<std::uint64_t> tokens = {lpn * 10 + 1, lpn * 10 + 2,
                                               lpn * 10 + 3, lpn * 10 + 4};
    auto result = pool->write_page(lpn, tokens, now);
    mapping[lpn] = result.first;
    return result;
  }

  nand::NandDevice dev;
  BlockAllocator allocator;
  FtlStats stats;
  std::map<std::uint64_t, std::uint64_t> mapping;
  std::map<std::uint64_t, std::uint64_t> relocations;
  std::unique_ptr<FullPagePool> pool;
};

TEST(FullPagePool, WriteAllocatesAndTracksValidity) {
  PoolFixture fx;
  fx.write(7, 0.0);
  EXPECT_EQ(fx.pool->valid_pages(), 1u);
  EXPECT_EQ(fx.pool->blocks_in_use(), 1u);
  EXPECT_EQ(fx.stats.flash_prog_full, 1u);
}

TEST(FullPagePool, WritesStripeAcrossChips) {
  PoolFixture fx;
  fx.write(0, 0.0);
  fx.write(1, 0.0);
  const nand::AddressCodec codec(tiny_geo());
  const auto a = codec.decode_page(fx.mapping[0]);
  const auto b = codec.decode_page(fx.mapping[1]);
  EXPECT_NE(a.chip, b.chip);
}

TEST(FullPagePool, InvalidateDecrementsValidity) {
  PoolFixture fx;
  fx.write(3, 0.0);
  fx.pool->invalidate(fx.mapping[3]);
  EXPECT_EQ(fx.pool->valid_pages(), 0u);
  // Double invalidation is a logic error.
  EXPECT_THROW(fx.pool->invalidate(fx.mapping[3]), std::logic_error);
}

TEST(FullPagePool, GcRelocatesValidPagesAndUpdatesMapping) {
  PoolFixture fx;
  // Fill most of the device: 16 blocks * 4 pages = 64 pages; keep lpns
  // unique for the first pass, then overwrite to create garbage.
  SimTime now = 0.0;
  for (std::uint64_t lpn = 0; lpn < 40; ++lpn) now = fx.write(lpn, now).second;
  for (std::uint64_t lpn = 0; lpn < 40; ++lpn) {
    fx.pool->invalidate(fx.mapping[lpn]);
    now = fx.write(lpn, now).second;  // triggers GC under space pressure
  }
  EXPECT_GT(fx.stats.gc_invocations, 0u);
  EXPECT_EQ(fx.pool->valid_pages(), 40u);
  // Relocated lpns point at pages whose tokens still match.
  const nand::AddressCodec codec(tiny_geo());
  for (const auto& [lpn, lin] : fx.mapping) {
    const auto read = fx.dev.read_page(codec.decode_page(lin), now);
    EXPECT_EQ(read.token[0], lpn * 10 + 1) << "lpn " << lpn;
  }
}

TEST(FullPagePool, GcPrefersEmptiestVictim) {
  PoolFixture fx;
  SimTime now = 0.0;
  // Block-sized batches: invalidate ALL pages of the first batch so GC has
  // a zero-valid victim available.
  for (std::uint64_t lpn = 0; lpn < 60; ++lpn) now = fx.write(lpn, now).second;
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
    fx.pool->invalidate(fx.mapping[lpn]);
  const auto copies_before = fx.stats.gc_copy_sectors;
  now = fx.pool->maybe_gc(now);
  // The victim(s) chosen should be (nearly) garbage-only: no copies needed
  // for a zero-valid block.
  EXPECT_LE(fx.stats.gc_copy_sectors - copies_before, 8u);
}

TEST(FullPagePool, QuotaBoundsBlockUsage) {
  PoolFixture fx(FullPagePool::Config{{/*quota_blocks=*/4,
                                       /*reserve_free_blocks=*/2}});
  SimTime now = 0.0;
  // Writing more than quota * pages_per_block live pages is impossible;
  // with churn (overwrites) the pool must stay within quota.
  for (int round = 0; round < 100; ++round) {
    const std::uint64_t lpn = round % 8;
    if (fx.mapping.contains(lpn) && round >= 8)
      fx.pool->invalidate(fx.mapping[lpn]);
    now = fx.write(lpn, now).second;
    EXPECT_LE(fx.pool->blocks_in_use(), 5u);  // quota + transient GC dest
  }
}

TEST(FullPagePool, DecliningGcWhenAllVictimsFullyValid) {
  PoolFixture fx;
  SimTime now = 0.0;
  // Fill with unique lpns only: everything stays valid.
  for (std::uint64_t lpn = 0; lpn < 56; ++lpn) now = fx.write(lpn, now).second;
  const auto gc_before = fx.stats.gc_invocations;
  now = fx.pool->maybe_gc(now);
  // Nothing reclaimable: GC must decline rather than copy fully-valid
  // blocks in a loop.
  EXPECT_EQ(fx.stats.gc_invocations, gc_before);
}

TEST(FullPagePool, ExhaustionThrowsCleanly) {
  PoolFixture fx;
  SimTime now = 0.0;
  EXPECT_THROW(
      {
        for (std::uint64_t lpn = 0; lpn < 1000; ++lpn)
          now = fx.write(lpn, now).second;  // unique lpns, no garbage
      },
      std::runtime_error);
}

TEST(FullPagePool, TimeAdvancesThroughWrites) {
  PoolFixture fx;
  const auto [lin1, t1] = fx.write(0, 100.0);
  EXPECT_GT(t1, 100.0);
  const auto [lin2, t2] = fx.write(1, t1);
  EXPECT_GT(t2, t1);
}

TEST(FullPagePool, CopybackGcPreservesDataWithoutTransfers) {
  PoolFixture fx(FullPagePool::Config{{~0ull, 2}, /*use_copyback=*/true});
  SimTime now = 0.0;
  // Immortal lpns (multiples of 5) stay put while the rest churn in a
  // scattered order, so GC victims on every chip carry valid pages that
  // must move (via copyback).
  for (std::uint64_t lpn = 0; lpn < 40; ++lpn) now = fx.write(lpn, now).second;
  for (int round = 0; round < 200; ++round) {
    std::uint64_t lpn = (static_cast<std::uint64_t>(round) * 7) % 40;
    if (lpn % 5 == 0) lpn = (lpn + 1) % 40;
    fx.pool->invalidate(fx.mapping[lpn]);
    now = fx.write(lpn, now).second;
  }
  EXPECT_GT(fx.stats.gc_invocations, 0u);
  EXPECT_GT(fx.stats.gc_copy_sectors, 0u);
  // All data still readable through the updated mapping.
  const nand::AddressCodec codec(tiny_geo());
  for (const auto& [lpn, lin] : fx.mapping) {
    const auto read = fx.dev.read_page(codec.decode_page(lin), now);
    EXPECT_EQ(read.token[0], lpn * 10 + 1) << "lpn " << lpn;
  }
}

TEST(FullPagePool, RequiresRelocateCallback) {
  nand::NandDevice dev(tiny_geo());
  BlockAllocator allocator(tiny_geo());
  FtlStats stats;
  EXPECT_THROW(FullPagePool(dev, allocator, FullPagePool::Config{}, stats,
                            nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace esp::ftl
