// Direct unit tests of BlockPoolCore's owner slabs: validity is "owner is
// not kUnmapped", slabs are recycled across block lifetimes, and a snapshot
// with inconsistent slab ids is refused.
#include "ftl/block_pool_core.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "ftl/block_allocator.h"
#include "nand/device.h"

namespace esp::ftl {
namespace {

nand::Geometry tiny_geo() {
  nand::Geometry geo;
  geo.channels = 2;
  geo.chips_per_channel = 1;
  geo.blocks_per_chip = 4;
  geo.pages_per_block = 4;
  geo.page_bytes = 16 * 1024;
  geo.subpages_per_page = 4;
  return geo;
}

/// A subpage-kind core (one slot per page, program times tracked) on its
/// own device.
struct CoreFixture {
  CoreFixture()
      : dev(tiny_geo()),
        allocator(tiny_geo()),
        core(dev, allocator, PoolConfig{}, stats, telemetry::HealthPool::kSub,
             tiny_geo().pages_per_block, /*track_write_times=*/true) {}

  /// Opens a block on `chip` and returns its index.
  std::size_t open(std::uint32_t chip, SimTime now) {
    const auto blk = core.open(chip, now);
    EXPECT_TRUE(blk.has_value());
    return core.index(chip, *blk);
  }

  nand::NandDevice dev;
  BlockAllocator allocator;
  FtlStats stats;
  BlockPoolCore core;
};

TEST(BlockPoolCore, FillSlotRejectsUnmappedOwner) {
  // kUnmapped marks an invalid slot: recording it as an owner would leave
  // a slot that reads back invalid while valid_count counts it.
  CoreFixture fx;
  const std::size_t idx = fx.open(0, 0.0);
  EXPECT_THROW(fx.core.fill_slot(idx, 0, nand::kUnmapped), std::logic_error);
  EXPECT_EQ(fx.core.block(idx).valid_count, 0u);
  EXPECT_EQ(fx.core.valid_slots(), 0u);
  fx.core.fill_slot(idx, 0, 42);
  EXPECT_EQ(fx.core.block(idx).valid_count, 1u);
}

TEST(BlockPoolCore, ValidityIsOwnerPresence) {
  CoreFixture fx;
  const std::size_t idx = fx.open(0, 0.0);
  for (std::uint32_t slot = 0; slot < 4; ++slot)
    EXPECT_FALSE(fx.core.valid(idx, slot));
  fx.core.fill_slot(idx, 2, 7);
  EXPECT_TRUE(fx.core.valid(idx, 2));
  EXPECT_EQ(fx.core.owner(idx, 2), 7u);
  fx.core.invalidate(idx, 2);
  EXPECT_FALSE(fx.core.valid(idx, 2));
  EXPECT_EQ(fx.core.owner(idx, 2), nand::kUnmapped);
  EXPECT_THROW(fx.core.invalidate(idx, 2), std::logic_error);
}

TEST(BlockPoolCore, RecycledSlabStartsEmpty) {
  CoreFixture fx;
  const std::size_t first = fx.open(0, 0.0);
  const std::uint32_t slab = fx.core.block(first).slab;
  for (std::uint32_t page = 0; page < 4; ++page) {
    fx.core.fill_slot(first, page, 100 + page);
    fx.core.written_at(first, page) = 5.0 + page;
  }
  fx.core.clear_slot(first, 0);
  // Released with live slots left behind: whatever the slab still holds
  // must not leak into the next block that takes it.
  fx.core.seal(0);
  fx.core.release(first, fx.core.erase(first, 1.0));
  EXPECT_EQ(fx.core.block(first).slab, BlockPoolCore::kNoSlab);

  const std::size_t second = fx.open(0, 2.0);
  ASSERT_NE(second, first);  // the allocator prefers the unworn blocks
  EXPECT_EQ(fx.core.block(second).slab, slab);
  EXPECT_EQ(fx.core.block(second).valid_count, 0u);
  for (std::uint32_t page = 0; page < 4; ++page) {
    EXPECT_FALSE(fx.core.valid(second, page));
    EXPECT_EQ(fx.core.written_at(second, page), 0.0);
  }
  fx.core.fill_slot(second, 1, 9);
  for (std::uint32_t page = 0; page < 4; ++page)
    EXPECT_EQ(fx.core.owner(second, page), page == 1 ? 9u : nand::kUnmapped);

  // A block opened while the free list is empty gets a fresh slab.
  const std::size_t third = fx.open(1, 3.0);
  EXPECT_NE(fx.core.block(third).slab, slab);
  EXPECT_EQ(fx.core.block(third).valid_count, 0u);
}

/// Saves `fx`'s core, lets `edit` patch the bytes, and loads them into a
/// fresh core.
template <typename Edit>
void reload(const CoreFixture& fx, Edit&& edit) {
  std::stringstream out;
  util::StateWriter w(out);
  fx.core.save_state(w);
  std::string bytes = out.str();
  edit(bytes);
  CoreFixture fresh;
  std::istringstream in(bytes);
  util::StateReader r(in);
  fresh.core.load_state(r);
}

/// Byte offset of block `idx`'s slab id in a saved core: "BPCO", the u64
/// block count, then per block owned, active, level (1 byte each), cursor,
/// valid_count and slab (u32 each).
std::size_t slab_offset(std::size_t idx) { return 4 + 8 + idx * 15 + 11; }

void expect_load_error(const CoreFixture& fx, std::size_t idx,
                       std::uint32_t slab, const std::string& what) {
  try {
    reload(fx, [&](std::string& bytes) {
      std::memcpy(&bytes[slab_offset(idx)], &slab, sizeof slab);
    });
    FAIL() << "accepted slab " << slab << " for block " << idx;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(BlockPoolCore, LoadStateRejectsBadSlabIds) {
  CoreFixture fx;
  const std::size_t a = fx.open(0, 0.0);
  const std::size_t b = fx.open(1, 0.0);
  fx.core.fill_slot(a, 0, 1);
  fx.core.fill_slot(b, 0, 2);
  EXPECT_NO_THROW(reload(fx, [](std::string&) {}));
  expect_load_error(fx, b, fx.core.block(a).slab, "slab id used twice");
  expect_load_error(fx, b, 2, "slab id out of range");
}

}  // namespace
}  // namespace esp::ftl
