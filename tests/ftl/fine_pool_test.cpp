// Direct unit tests of the fine-grained (sector-mapped) pool: group
// writes with padding, per-sector validity, repacking GC, log-mode
// eviction, and the pool's own sector map with its snapshot checks.
#include "ftl/fine_pool.h"

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

constexpr std::uint64_t kSectors = 256;

/// Log-mode eviction target: records every batch it is handed.
struct RecordingTarget final : EvictionTarget {
  SimTime merge_sectors(std::span<const SectorWrite> batch,
                        SimTime now) override {
    batches.emplace_back(batch.begin(), batch.end());
    return now + 1.0;
  }
  std::vector<std::vector<SectorWrite>> batches;
};

struct PoolFixture {
  explicit PoolFixture(EvictionTarget* log_target = nullptr)
      : dev(tiny_geo()), allocator(tiny_geo()) {
    pool = std::make_unique<FinePool>(dev, allocator,
                                      FinePool::Config{~0ull, 2}, stats,
                                      kSectors, log_target);
  }

  SimTime write_group(std::vector<std::uint64_t> sectors, SimTime now) {
    std::vector<SectorWrite> group;
    for (const auto s : sectors) group.push_back({s, s + 1000});
    return pool->write_group(group, now);
  }

  nand::NandDevice dev;
  BlockAllocator allocator;
  FtlStats stats;
  std::unique_ptr<FinePool> pool;
};

TEST(FinePool, DenseGroupOccupiesOnePage) {
  PoolFixture fx;
  fx.write_group({0, 1, 2, 3}, 0.0);
  EXPECT_EQ(fx.stats.flash_prog_full, 1u);
  EXPECT_EQ(fx.pool->valid_sectors(), 4u);
  // All four sectors share a physical page.
  const nand::AddressCodec codec(tiny_geo());
  const auto page0 = codec.decode_subpage(fx.pool->subpage_of(0)).page;
  for (std::uint64_t s = 1; s < 4; ++s)
    EXPECT_EQ(codec.decode_subpage(fx.pool->subpage_of(s)).page, page0);
}

TEST(FinePool, SparseGroupWastesPageSpace) {
  PoolFixture fx;
  fx.write_group({42}, 0.0);  // one live sector, three padding slots
  EXPECT_EQ(fx.stats.flash_prog_full, 1u);
  EXPECT_EQ(fx.pool->valid_sectors(), 1u);
}

TEST(FinePool, RejectsOversizedOrEmptyGroups) {
  PoolFixture fx;
  EXPECT_THROW(fx.write_group({}, 0.0), std::logic_error);
  EXPECT_THROW(fx.write_group({0, 1, 2, 3, 4}, 0.0), std::logic_error);
}

TEST(FinePool, InvalidateTracksPerSector) {
  PoolFixture fx;
  const SimTime t = fx.write_group({0, 1, 2, 3}, 0.0);
  fx.pool->drop(2);
  EXPECT_EQ(fx.pool->valid_sectors(), 3u);
  EXPECT_EQ(fx.pool->subpage_of(2), nand::kUnmapped);
  // The map is cleared with the slot: dropping again touches nothing.
  fx.pool->drop(2);
  EXPECT_EQ(fx.pool->valid_sectors(), 3u);
  // Rewriting a mapped sector supersedes its old slot.
  fx.write_group({1}, t);
  EXPECT_EQ(fx.pool->valid_sectors(), 3u);
}

TEST(FinePool, GcRepacksSparseSectorsDensely) {
  PoolFixture fx;
  SimTime now = 0.0;
  // Write 48 sparse pages (one live sector each) across 12 of 16 blocks,
  // then churn until GC repacks.
  for (std::uint64_t s = 0; s < 48; ++s) now = fx.write_group({s}, now);
  // Invalidate three quarters: victims become cheap.
  for (std::uint64_t s = 0; s < 48; ++s)
    if (s % 4 != 0) fx.pool->drop(s);
  // More sparse writes force GC.
  for (std::uint64_t s = 100; s < 130; ++s) now = fx.write_group({s}, now);
  EXPECT_GT(fx.stats.gc_invocations, 0u);
  // The surviving multiples of 4 must still read back via their mapping.
  const nand::AddressCodec codec(tiny_geo());
  for (std::uint64_t s = 0; s < 48; s += 4) {
    const auto ack =
        fx.dev.read_subpage(codec.decode_subpage(fx.pool->subpage_of(s)), now);
    EXPECT_EQ(ack.token, s + 1000) << "sector " << s;
    EXPECT_EQ(ack.status, nand::ReadStatus::kOk);
  }
}

TEST(FinePool, GcCopySectorsCounted) {
  PoolFixture fx;
  SimTime now = 0.0;
  for (std::uint64_t s = 0; s < 56; ++s) now = fx.write_group({s}, now);
  for (std::uint64_t s = 0; s < 56; ++s)
    if (s % 2 == 0) fx.pool->drop(s);
  // Continue writing: space pressure forces GC, which must relocate the
  // surviving odd sectors (they stay readable with their tokens).
  const auto copies_before = fx.stats.gc_copy_sectors;
  for (std::uint64_t s = 100; s < 140; ++s) now = fx.write_group({s}, now);
  EXPECT_GT(fx.stats.gc_copy_sectors, copies_before);
  const nand::AddressCodec codec(tiny_geo());
  for (std::uint64_t s = 1; s < 56; s += 2) {
    const auto ack =
        fx.dev.read_subpage(codec.decode_subpage(fx.pool->subpage_of(s)), now);
    EXPECT_EQ(ack.token, s + 1000) << "sector " << s;
  }
}

TEST(FinePool, PaddingSlotsNeverBecomeValid) {
  PoolFixture fx;
  fx.write_group({5}, 0.0);
  const nand::AddressCodec codec(tiny_geo());
  const auto addr = codec.decode_subpage(fx.pool->subpage_of(5));
  // Slot 1 of the same page holds padding (token 0, stored by the device
  // but never mapped).
  const auto pad = fx.dev.read_subpage(
      nand::SubpageAddr{addr.page, 1}, 1.0);
  EXPECT_EQ(pad.token, 0u);
  EXPECT_EQ(fx.pool->valid_sectors(), 1u);
}

TEST(FinePool, LogModeGcEvictsIntoTarget) {
  RecordingTarget target;
  PoolFixture fx(&target);
  SimTime now = 0.0;
  for (std::uint64_t s = 0; s < 56; ++s) now = fx.write_group({s}, now);
  std::uint64_t dropped = 0;
  for (std::uint64_t s = 0; s < 56; s += 2) {
    dropped += fx.pool->subpage_of(s) != nand::kUnmapped;
    fx.pool->drop(s);
  }
  for (std::uint64_t s = 100; s < 140; ++s) now = fx.write_group({s}, now);
  ASSERT_GT(fx.stats.gc_invocations, 0u);
  ASSERT_FALSE(target.batches.empty());
  // Log cleaning never repacks: every live sector of a victim goes to the
  // target, leaves the pool's map, and is counted as a cold eviction.
  EXPECT_EQ(fx.stats.gc_copy_sectors, 0u);
  std::uint64_t evicted = 0;
  for (const auto& batch : target.batches) {
    for (const SectorWrite& sw : batch) {
      EXPECT_EQ(sw.token, sw.sector + 1000) << "sector " << sw.sector;
      EXPECT_EQ(fx.pool->subpage_of(sw.sector), nand::kUnmapped)
          << "sector " << sw.sector;
      ++evicted;
    }
  }
  EXPECT_EQ(evicted, fx.stats.cold_evictions);
  std::uint64_t mapped = 0;
  for (std::uint64_t s = 0; s < kSectors; ++s)
    mapped += fx.pool->subpage_of(s) != nand::kUnmapped;
  EXPECT_EQ(mapped, fx.pool->valid_sectors());
  // Every sector written is still mapped, was dropped, or was evicted.
  EXPECT_EQ(mapped + dropped + evicted, 56u + 40u);
}

TEST(FinePool, LoadRejectsCorruptMapEntry) {
  PoolFixture fx;
  fx.write_group({0, 1, 2}, 0.0);
  const auto reload = [&](std::uint64_t sector, std::uint64_t sub_lin) {
    std::stringstream out;
    util::StateWriter w(out);
    fx.pool->save_state(w);
    std::string bytes = out.str();  // the map is the section's last array
    std::memcpy(&bytes[bytes.size() - (kSectors - sector) * sizeof sub_lin],
                &sub_lin, sizeof sub_lin);
    PoolFixture fresh;
    std::istringstream in(bytes);
    util::StateReader r(in);
    fresh.pool->load_state(r);
  };
  EXPECT_NO_THROW(reload(1, fx.pool->subpage_of(1)));
  // Another sector's slot, the page's padding slot, or a dropped entry.
  EXPECT_THROW(reload(1, fx.pool->subpage_of(2)), std::runtime_error);
  EXPECT_THROW(reload(1, fx.pool->subpage_of(2) + 1), std::runtime_error);
  EXPECT_THROW(reload(9, fx.pool->subpage_of(2)), std::runtime_error);
  EXPECT_THROW(reload(1, nand::kUnmapped), std::runtime_error);
}

}  // namespace
}  // namespace esp::ftl
