// Block-pool core: the block-ownership machinery every storage pool
// (FullPagePool, FinePool, SubpagePool) shares.
//
// All pools of an FTL draw erased blocks from one BlockAllocator, and a
// block's type is decided when it is programmed (paper Sec. 4.2). The pools
// differ only in where they place data inside a block (page append,
// sector-group append, ESP slot frontier) and in how GC copies it out.
// Everything else lives here, once:
//
//   * per-block metadata: ownership, the active flag, the program cursor,
//     the ESP level and the valid count;
//   * per-slot owners (a slot is the pool's mapping unit: a page, or one
//     sector of a page) and, where data ages out, per-page program times,
//     in slabs: one row per owned block in one flat array, taken when the
//     block is opened and recycled when it is released. A slot is valid
//     exactly when its owner is not nand::kUnmapped;
//   * the per-chip owned-block index in ascending block id, so every walk
//     over the pool's blocks visits them in chip-asc/block-asc order, the
//     tie-break order of a full-device scan;
//   * the per-chip active block, opened and sealed round-robin;
//   * the min-valid GC victim heap and the static wear-leveling candidate
//     choice (WearIndex, or the reference linear scan);
//   * the erase -> kErased/kRetired -> unown -> allocator-release tail;
//   * health rows, owned P/E cycles, and snapshot save/load of all of it.
//
// A pool asks the core which block to collect next or which sealed block
// is coldest, then does the flash I/O itself. Every call is direct: no
// virtual dispatch and no type-erased callbacks.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/types.h"
#include "ftl/wear_index.h"
#include "nand/address.h"
#include "nand/device.h"
#include "telemetry/health.h"
#include "telemetry/telemetry.h"
#include "util/huge_pages.h"

namespace esp::ftl {

/// Settings every pool shares.
struct PoolConfig {
  /// Max blocks the pool may hold simultaneously (region quota).
  std::uint64_t quota_blocks = ~0ull;
  /// GC starts when the shared allocator drops to this many free blocks.
  std::size_t reserve_free_blocks = 8;
  /// Debug/differential mode: find maintenance targets (wear leveling, and
  /// the subpage pool's retention scan and idle release) with the original
  /// linear scans instead of the incremental indices. Decisions are
  /// bit-identical either way (see docs/PERFORMANCE.md); the scan mode
  /// exists so tests and CI can keep proving that on every change.
  bool reference_scan_maintenance = false;
};

class BlockPoolCore {
 public:
  /// Slab of a block that owns none.
  static constexpr std::uint32_t kNoSlab = ~0u;

  struct Block {
    bool owned = false;
    bool active = false;            ///< currently receiving writes
    std::uint8_t level = 0;         ///< ESP slot level (subpage pool; else 0)
    std::uint32_t cursor = 0;       ///< next page to program at this level
    std::uint32_t valid_count = 0;  ///< valid slots
    std::uint32_t slab = kNoSlab;   ///< owner-slab row while owned
  };

  /// `kind` labels the pool's blocks in telemetry events and health rows;
  /// each block holds `slots_per_block` mapping units, plus per-page
  /// program times (written_at) when `track_write_times` is set.
  BlockPoolCore(nand::NandDevice& dev, BlockAllocator& allocator,
                const PoolConfig& config, FtlStats& stats,
                telemetry::HealthPool kind, std::uint32_t slots_per_block,
                bool track_write_times = false);

  std::size_t index(std::uint32_t chip, std::uint32_t block) const {
    return static_cast<std::size_t>(chip) * blocks_per_chip_ + block;
  }
  std::uint32_t chip_of(std::size_t idx) const {
    return static_cast<std::uint32_t>(idx / blocks_per_chip_);
  }
  std::uint32_t block_of(std::size_t idx) const {
    return static_cast<std::uint32_t>(idx % blocks_per_chip_);
  }
  Block& block(std::size_t idx) { return meta_[idx]; }
  const Block& block(std::size_t idx) const { return meta_[idx]; }
  /// Owned and no longer receiving writes: the only blocks GC and wear
  /// leveling may collect. An append-only pool seals a block only once it
  /// is full.
  static bool sealed(const Block& m) { return m.owned && !m.active; }
  /// This pool's blocks on `chip`, ascending block id.
  const std::vector<std::uint32_t>& owned(std::uint32_t chip) const {
    return owned_by_chip_[chip];
  }
  /// Owner (lpn or sector) of slot `slot` of owned block `idx`, or
  /// nand::kUnmapped when the slot holds no valid data.
  std::uint64_t owner(std::size_t idx, std::size_t slot) const {
    return slab_owner_[row(idx, slots_per_block_) + slot];
  }
  bool valid(std::size_t idx, std::size_t slot) const {
    return owner(idx, slot) != nand::kUnmapped;
  }
  /// Per page of owned block `idx`: program time of the page's live data.
  /// Kept only by pools whose data ages out (the subpage region's
  /// retention eviction, paper Sec. 4.3), in slabs of their own beside the
  /// owner slabs.
  SimTime& written_at(std::size_t idx, std::uint32_t page) {
    return slab_written_at_[row(idx, pages_per_block_) + page];
  }
  /// The block `chip` currently writes into, if any.
  std::optional<std::uint32_t>& active(std::uint32_t chip) {
    return active_block_[chip];
  }

  /// Records `owner` as live in slot `slot` of owned block `idx`. Throws
  /// std::logic_error for nand::kUnmapped, which marks a slot invalid.
  void fill_slot(std::size_t idx, std::size_t slot, std::uint64_t owner) {
    if (owner == nand::kUnmapped)
      throw std::logic_error("fill_slot: kUnmapped cannot own a slot");
    slab_owner_[row(idx, slots_per_block_) + slot] = owner;
    ++meta_[idx].valid_count;
    ++valid_slots_;
  }
  /// Drops the live slot `slot` of owned block `idx`.
  void clear_slot(std::size_t idx, std::size_t slot) {
    slab_owner_[row(idx, slots_per_block_) + slot] = nand::kUnmapped;
    --meta_[idx].valid_count;
    --valid_slots_;
  }
  /// Host-path invalidation: clear_slot after checking that the slot is
  /// live; throws std::logic_error otherwise.
  const Block& invalidate(std::size_t idx, std::size_t slot);

  /// Takes the lowest-P/E free block of `chip` and makes it the chip's
  /// active block, recording kAllocated at `now`. nullopt when the chip has
  /// no free block.
  std::optional<std::uint32_t> open(std::uint32_t chip, SimTime now);
  /// Retires `chip`'s active block from write duty: it becomes sealed and
  /// a wear-leveling candidate. Returns its index.
  std::size_t seal(std::uint32_t chip);
  /// Append-only pools: gives `chip` an active block with a free page,
  /// sealing a full one (which becomes a GC candidate) and opening a fresh
  /// one as needed. False when the chip has no free block. (Defined here,
  /// like ensure_active, so every page write inlines the common case.)
  bool ensure_active_on(std::uint32_t chip, SimTime now) {
    if (const auto& active = active_block_[chip]) {
      if (meta_[index(chip, *active)].cursor < pages_per_block_) return true;
      push_victim(seal(chip));  // full: retire from active duty
    }
    return open(chip, now).has_value();
  }
  /// Same, round-robin over the chips starting after the last one used.
  /// Returns the chip, or nullopt when no chip has room.
  std::optional<std::uint32_t> ensure_active(SimTime now) {
    const auto chips = static_cast<std::uint32_t>(active_block_.size());
    for (std::uint32_t attempt = 0; attempt < chips; ++attempt) {
      const std::uint32_t chip = (rr_chip_ + attempt) % chips;
      if (ensure_active_on(chip, now)) {
        rotate_past(chip);
        return chip;
      }
    }
    return std::nullopt;
  }
  /// The chip the next round-robin pass starts from.
  std::uint32_t rr_chip() const { return rr_chip_; }
  /// Starts the next round-robin pass after `chip`.
  void rotate_past(std::uint32_t chip) {
    rr_chip_ = (chip + 1) % static_cast<std::uint32_t>(active_block_.size());
  }

  /// Queues a sealed block as a GC candidate at its current valid count
  /// (lazy: stale entries are skipped at pop).
  void push_victim(std::size_t idx) {
    victim_heap_.emplace(meta_[idx].valid_count, idx);
  }
  /// Append-only pools' greedy GC: while the pool is over quota or the
  /// shared allocator is at or below the reserve, hands the sealed block
  /// with the fewest valid slots to collect(idx, now) -> completion time.
  /// Stops when no victim reclaims anything. Returns the possibly advanced
  /// time.
  template <typename Collect>
  SimTime collect_under_pressure(SimTime now, Collect&& collect) {
    while (space_pressure() && blocks_in_use_ > 0) {
      const auto victim = pop_victim();
      if (!victim) break;
      ++stats_.gc_invocations;
      const SimTime after = collect(*victim, now);
      if (after == now && space_pressure()) break;
      now = after;
    }
    return now;
  }

  /// Static wear leveling (paper Sec. 4.2): when the pool's least-worn
  /// sealed block lags the device's most-worn block by more than
  /// `pe_threshold` cycles, hands it to collect(idx, now) -> completion,
  /// which relocates its (typically cold) contents and erases it so it
  /// rejoins the low-P/E-first rotation. Returns the possibly advanced
  /// time; a cheap no-op when wear is balanced.
  template <typename Collect>
  SimTime static_wear_level(SimTime now, std::uint32_t pe_threshold,
                            Collect&& collect) {
    const MaintenanceTimer timer(stats_, &stats_.maint_wear_level_calls,
                                 &stats_.maint_wear_level_ns);
    const auto coldest = wear_level_victim(pe_threshold);
    return coldest ? collect(*coldest, now) : now;
  }

  /// Erases block `idx` at `now`; returns the erase completion time.
  SimTime erase(std::size_t idx, SimTime now);
  /// Tail of every collection, after erase(): records kErased/kRetired at
  /// `done`, drops ownership, recycles the block's slab and returns the
  /// block to the allocator.
  void release(std::size_t idx, SimTime done);

  std::uint64_t blocks_in_use() const { return blocks_in_use_; }
  std::uint64_t valid_slots() const { return valid_slots_; }
  std::size_t free_blocks() const { return allocator_.total_free(); }

  /// For wear metrics: P/E counts of the blocks this pool owns.
  std::vector<std::uint32_t> owned_pe_cycles() const;
  /// Health snapshot: marks owned blocks with the pool kind, ESP level and
  /// valid slot count (capacity = slots per block).
  void fill_health(std::span<telemetry::BlockHealth> out) const;

  void set_telemetry(telemetry::Telemetry* tel) { tel_ = tel; }
  telemetry::Telemetry* tel() const { return tel_; }

  /// Snapshot support: per-block metadata, the slabs and their free list,
  /// owned-block index, active blocks, round-robin position and the exact
  /// victim/wear heap layouts. Load throws on a slab id that is out of
  /// range or used twice.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

  /// Snapshot check of a pool's key -> address map, after load_state:
  /// every mapped key's slot, located(address) -> (block index, slot),
  /// must be live and owned by that key, and the number of mapped keys
  /// must equal valid_slots(). Throws std::runtime_error otherwise.
  template <typename Locate>
  void check_map(std::span<const std::uint64_t> map, Locate&& locate) const {
    std::uint64_t mapped = 0;
    for (std::uint64_t key = 0; key < map.size(); ++key) {
      if (map[key] == nand::kUnmapped) continue;
      ++mapped;
      const auto [idx, slot] = locate(map[key]);
      if (idx >= meta_.size() || !meta_[idx].owned ||
          slot >= slots_per_block_ || owner(idx, slot) != key)
        map_error("key " + std::to_string(key) +
                  " maps a slot it does not own");
    }
    if (mapped != valid_slots_)
      map_error(std::to_string(mapped) + " keys mapped, " +
                std::to_string(valid_slots_) + " slots valid");
  }

 private:
  /// Throws check_map's std::runtime_error.
  [[noreturn]] void map_error(const std::string& what) const;
  bool space_pressure() const {
    return allocator_.total_free() <= config_.reserve_free_blocks ||
           blocks_in_use_ >= config_.quota_blocks;
  }
  /// Pops the sealed block with the fewest valid slots. nullopt when none
  /// is queued, or when that block is fully valid: erasing it would reclaim
  /// nothing, so GC declines and lets writes consume the reserve until an
  /// invalidation re-queues it.
  std::optional<std::size_t> pop_victim();
  /// Coldest sealed block when it lags the most-worn block by more than
  /// `pe_threshold` and a free block exists to relocate into.
  std::optional<std::size_t> wear_level_victim(std::uint32_t pe_threshold);
  void index_add(std::uint32_t chip, std::uint32_t block);
  void index_remove(std::uint32_t chip, std::uint32_t block);
  /// load_state's slab checks: every slab id in range and used once.
  void check_slabs() const;
  /// First element of owned block `idx`'s row in a slab array of
  /// `width`-element rows.
  std::size_t row(std::size_t idx, std::size_t width) const {
    return std::size_t{meta_[idx].slab} * width;
  }

  nand::NandDevice& dev_;
  BlockAllocator& allocator_;
  PoolConfig config_;
  FtlStats& stats_;
  telemetry::HealthPool kind_;
  std::uint32_t slots_per_block_;
  std::uint32_t blocks_per_chip_;
  std::uint32_t pages_per_block_;

  std::vector<Block> meta_;  ///< indexed by chip*blocks_per_chip+block
  /// Slabs: row r of slab_owner_ (slots_per_block_ owners) and of
  /// slab_written_at_ (pages_per_block_ times; empty unless write times are
  /// tracked) belongs to the owned block whose Block::slab is r. Rows are
  /// appended only when no released one is free, so the memory touched
  /// tracks the peak number of owned blocks. Capacity for every block is
  /// reserved up front and left untouched until used, so appending never
  /// reallocates (no copy, no transient second footprint).
  util::HugeVector<std::uint64_t> slab_owner_;
  util::HugeVector<SimTime> slab_written_at_;
  std::vector<std::uint32_t> free_slabs_;  ///< released rows, reused LIFO
  bool track_write_times_;
  std::vector<std::vector<std::uint32_t>> owned_by_chip_;
  std::vector<std::optional<std::uint32_t>> active_block_;  ///< per chip
  /// Lazy min-heap of GC candidates: (valid_count at push, block index).
  /// Stale entries (count changed, block re-erased, ...) are skipped at pop.
  std::priority_queue<std::pair<std::uint32_t, std::size_t>,
                      std::vector<std::pair<std::uint32_t, std::size_t>>,
                      std::greater<>>
      victim_heap_;
  /// Wear-leveling candidates, pushed at seal time (see wear_index.h).
  WearIndex wear_index_;
  std::uint32_t rr_chip_ = 0;
  std::uint64_t blocks_in_use_ = 0;
  std::uint64_t valid_slots_ = 0;
  telemetry::Telemetry* tel_ = nullptr;
};

}  // namespace esp::ftl
