// Direct unit tests of the full-page (CGM) storage pool: allocation,
// striping, validity accounting, GC victim choice, quota behavior, the
// pool's own lpn -> page map and its snapshot checks.
#include "ftl/fullpage_pool.h"

#include <gtest/gtest.h>

#include <cstring>
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

constexpr std::uint64_t kLpns = 1024;

struct PoolFixture {
  explicit PoolFixture(FullPagePool::Config config = {{~0ull, 2}})
      : dev(tiny_geo()), allocator(tiny_geo()) {
    pool = std::make_unique<FullPagePool>(dev, allocator, config, stats,
                                          kLpns);
  }

  SimTime write(std::uint64_t lpn, SimTime now) {
    const std::vector<std::uint64_t> tokens = {lpn * 10 + 1, lpn * 10 + 2,
                                               lpn * 10 + 3, lpn * 10 + 4};
    return pool->write_page(lpn, tokens, now);
  }

  /// Every written lpn's token-0 must read back through the pool's map.
  void expect_mapped_data_intact(std::uint64_t lpns, SimTime now) {
    const nand::AddressCodec codec(tiny_geo());
    for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
      ASSERT_NE(pool->page_of(lpn), nand::kUnmapped) << "lpn " << lpn;
      const auto read = dev.read_page(codec.decode_page(pool->page_of(lpn)),
                                      now);
      EXPECT_EQ(read.token[0], lpn * 10 + 1) << "lpn " << lpn;
    }
  }

  nand::NandDevice dev;
  BlockAllocator allocator;
  FtlStats stats;
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
  const auto a = codec.decode_page(fx.pool->page_of(0));
  const auto b = codec.decode_page(fx.pool->page_of(1));
  EXPECT_NE(a.chip, b.chip);
}

TEST(FullPagePool, InvalidateDecrementsValidity) {
  PoolFixture fx;
  fx.write(3, 0.0);
  fx.pool->drop(3);
  EXPECT_EQ(fx.pool->valid_pages(), 0u);
  EXPECT_EQ(fx.pool->page_of(3), nand::kUnmapped);
  // The map is cleared with the page: dropping again touches nothing.
  fx.pool->drop(3);
  EXPECT_EQ(fx.pool->valid_pages(), 0u);
}

TEST(FullPagePool, OverwriteSupersedesOldPage) {
  PoolFixture fx;
  const SimTime t = fx.write(3, 0.0);
  const std::uint64_t old_page = fx.pool->page_of(3);
  fx.write(3, t);
  EXPECT_NE(fx.pool->page_of(3), old_page);
  EXPECT_EQ(fx.pool->valid_pages(), 1u);
}

TEST(FullPagePool, GcRelocatesValidPagesAndUpdatesMapping) {
  PoolFixture fx;
  // Fill most of the device: 16 blocks * 4 pages = 64 pages; keep lpns
  // unique for the first pass, then overwrite to create garbage.
  SimTime now = 0.0;
  for (std::uint64_t lpn = 0; lpn < 40; ++lpn) now = fx.write(lpn, now);
  for (std::uint64_t lpn = 0; lpn < 40; ++lpn)
    now = fx.write(lpn, now);  // triggers GC under space pressure
  EXPECT_GT(fx.stats.gc_invocations, 0u);
  EXPECT_EQ(fx.pool->valid_pages(), 40u);
  // Relocated lpns point at pages whose tokens still match.
  fx.expect_mapped_data_intact(40, now);
}

TEST(FullPagePool, GcPrefersEmptiestVictim) {
  PoolFixture fx;
  SimTime now = 0.0;
  // Block-sized batches: invalidate ALL pages of the first batch so GC has
  // a zero-valid victim available.
  for (std::uint64_t lpn = 0; lpn < 60; ++lpn) now = fx.write(lpn, now);
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) fx.pool->drop(lpn);
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
    now = fx.write(lpn, now);
    EXPECT_LE(fx.pool->blocks_in_use(), 5u);  // quota + transient GC dest
  }
}

TEST(FullPagePool, DecliningGcWhenAllVictimsFullyValid) {
  PoolFixture fx;
  SimTime now = 0.0;
  // Fill with unique lpns only: everything stays valid.
  for (std::uint64_t lpn = 0; lpn < 56; ++lpn) now = fx.write(lpn, now);
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
          now = fx.write(lpn, now);  // unique lpns, no garbage
      },
      std::runtime_error);
}

TEST(FullPagePool, TimeAdvancesThroughWrites) {
  PoolFixture fx;
  const SimTime t1 = fx.write(0, 100.0);
  EXPECT_GT(t1, 100.0);
  const SimTime t2 = fx.write(1, t1);
  EXPECT_GT(t2, t1);
}

TEST(FullPagePool, CopybackGcPreservesDataWithoutTransfers) {
  PoolFixture fx(FullPagePool::Config{{~0ull, 2}, /*use_copyback=*/true});
  SimTime now = 0.0;
  // Immortal lpns (multiples of 5) stay put while the rest churn in a
  // scattered order, so GC victims on every chip carry valid pages that
  // must move (via copyback).
  for (std::uint64_t lpn = 0; lpn < 40; ++lpn) now = fx.write(lpn, now);
  for (int round = 0; round < 200; ++round) {
    std::uint64_t lpn = (static_cast<std::uint64_t>(round) * 7) % 40;
    if (lpn % 5 == 0) lpn = (lpn + 1) % 40;
    now = fx.write(lpn, now);
  }
  EXPECT_GT(fx.stats.gc_invocations, 0u);
  EXPECT_GT(fx.stats.gc_copy_sectors, 0u);
  // All data still readable through the updated mapping.
  fx.expect_mapped_data_intact(40, now);
}

TEST(FullPagePool, GcRelocationUpdatesMapWithAndWithoutCopyback) {
  for (const bool copyback : {false, true}) {
    SCOPED_TRACE(copyback ? "copyback" : "read + program");
    PoolFixture fx(FullPagePool::Config{{~0ull, 2}, copyback});
    SimTime now = 0.0;
    for (std::uint64_t lpn = 0; lpn < 40; ++lpn) now = fx.write(lpn, now);
    // Multiples of 5 are never rewritten, so a new page for one of them is
    // a GC move that the pool recorded in its own map.
    std::vector<std::uint64_t> before(40);
    for (std::uint64_t lpn = 0; lpn < 40; ++lpn)
      before[lpn] = fx.pool->page_of(lpn);
    for (int round = 0; round < 200; ++round) {
      std::uint64_t lpn = (static_cast<std::uint64_t>(round) * 7) % 40;
      if (lpn % 5 == 0) lpn = (lpn + 1) % 40;
      now = fx.write(lpn, now);
    }
    std::uint64_t moved = 0;
    for (std::uint64_t lpn = 0; lpn < 40; lpn += 5)
      moved += fx.pool->page_of(lpn) != before[lpn];
    EXPECT_GT(moved, 0u) << "GC never moved a cold page";
    EXPECT_EQ(fx.pool->valid_pages(), 40u);
    fx.expect_mapped_data_intact(40, now);
  }
}

/// Saves `fx`'s pool, overwrites map entry `lpn` with `page` (the map is the
/// section's last array), and loads the bytes into a fresh pool.
void reload_with_entry(const PoolFixture& fx, std::uint64_t lpn,
                       std::uint64_t page) {
  std::stringstream out;
  util::StateWriter w(out);
  fx.pool->save_state(w);
  std::string bytes = out.str();
  std::memcpy(&bytes[bytes.size() - (kLpns - lpn) * sizeof page], &page,
              sizeof page);
  PoolFixture fresh;
  std::istringstream in(bytes);
  util::StateReader r(in);
  fresh.pool->load_state(r);
}

void expect_map_error(const PoolFixture& fx, std::uint64_t lpn,
                      std::uint64_t page, const std::string& what) {
  try {
    reload_with_entry(fx, lpn, page);
    FAIL() << "accepted page " << page << " for lpn " << lpn;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(FullPagePool, LoadRejectsCorruptMapEntry) {
  PoolFixture fx;
  SimTime now = 0.0;
  for (std::uint64_t lpn = 0; lpn < 3; ++lpn) now = fx.write(lpn, now);
  const std::uint64_t stale = fx.pool->page_of(0);
  now = fx.write(0, now);
  EXPECT_NO_THROW(reload_with_entry(fx, 1, fx.pool->page_of(1)));
  // Pointing at another lpn's page, at a stale page or at no page at all,
  // or unmapping a live lpn, breaks the map/owner agreement.
  expect_map_error(fx, 1, fx.pool->page_of(2), "key 1 maps a slot");
  expect_map_error(fx, 5, fx.pool->page_of(2), "key 5 maps a slot");
  expect_map_error(fx, 1, stale, "key 1 maps a slot");
  expect_map_error(fx, 1, tiny_geo().total_pages() + 7, "key 1 maps a slot");
  expect_map_error(fx, 1, nand::kUnmapped, "2 keys mapped, 3 slots valid");
}

}  // namespace
}  // namespace esp::ftl
