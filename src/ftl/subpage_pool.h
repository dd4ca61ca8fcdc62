// Subpage region management: erase-free subpage programming (paper Sec. 4.2).
//
// Blocks in this pool are written one 4-KB subpage at a time using ESP.
// The writing policy follows the paper's Fig. 7:
//
//   * within each chip, one block is "active"; its pages are consumed
//     sequentially at the block's current *level* (slot index), so the 0th
//     subpages of every page fill up before any 1st subpage is touched --
//     maximizing the time for data to become obsolete before its page's
//     word line is re-programmed;
//   * when every block is sealed at its level, the block with the fewest
//     valid subpages advances to the next level; pages that still hold
//     valid data FORWARD it into the page's next slot (one subpage program,
//     no data loss -- the spX(0,0) -> spX(0,1) move of Fig. 7(c));
//   * a page never holds more than one valid subpage (the latest slot), so
//     the region's hash mapping (sector -> subpage, owned here) stays
//     small;
//   * when all levels of all blocks are exhausted, GC picks the block with
//     the fewest valid subpages: subpages that were updated at least once
//     since entering the region (hot) are rewritten into the region, the
//     rest are evicted to the full-page region (cold);
//   * a retention scan evicts subpages older than the configured age to
//     the full-page region before they outlive the reduced ESP retention
//     horizon (paper Sec. 4.3).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/block_pool_core.h"
#include "ftl/retention_queue.h"
#include "ftl/types.h"
#include "nand/address.h"
#include "nand/device.h"
#include "telemetry/telemetry.h"

namespace esp::ftl {

class SubpagePool {
 public:
  struct Config : PoolConfig {
    SimTime retention_evict_age = 15 * sim_time::kDay;  ///< paper Sec. 4.3
    /// Blocks reclaimed per GC episode. Reclaiming several at once keeps a
    /// pool of erased blocks so the live hot set spreads across fresh
    /// level-0 slots instead of being forwarded through every level of a
    /// single block (the paper reclaims "free blocks", plural).
    std::uint32_t gc_free_target = 2;
    /// A sealed block only advances to its next level when at most this
    /// fraction of its pages holds valid data; advancing a mostly-valid
    /// block would forward nearly every page for almost no free slots.
    /// Denser blocks go to GC instead, whose hot/cold filter can actually
    /// shed load to the full-page region. Swept by bench/ablation_policy.
    double advance_max_valid_fraction = 0.25;
  };

  /// Maps sectors [0, sectors); GC and retention evictions go to `evict`
  /// (the full-page region).
  SubpagePool(nand::NandDevice& dev, BlockAllocator& allocator,
              const Config& config, FtlStats& stats, std::uint64_t sectors,
              EvictionTarget& evict);

  /// Linear subpage address of `sector`'s live copy, or nand::kUnmapped.
  std::uint64_t subpage_of(std::uint64_t sector) const {
    return map_[sector];
  }
  /// Updated since entering the region: GC keeps hot sectors in the region
  /// and evicts the rest.
  bool hot(std::uint64_t sector) const { return hot_[sector]; }

  /// Stores one sector via an ESP subpage program (forwarding/advancing/
  /// collecting as needed). A resident copy goes stale first and makes the
  /// sector hot. Returns the completion time, or nullopt when the region
  /// has no slot left: the sector has then left the region (unmapped, not
  /// hot) and the caller must store it elsewhere.
  std::optional<SimTime> try_write_sector(std::uint64_t sector,
                                          std::uint64_t token, SimTime now);

  /// Drops `sector`'s copy (TRIM, or a full-page write supersedes it); a
  /// no-op when it has none.
  void drop(std::uint64_t sector) {
    if (map_[sector] == nand::kUnmapped) return;
    invalidate(sector);
    hot_[sector] = false;
  }

  /// Evicts subpages older than config().retention_evict_age.
  SimTime retention_scan(SimTime now);

  /// Erases and releases region blocks that hold no valid data (block-type
  /// conversion back to the shared pool). Called by the owner when the
  /// allocator runs low so an idle region does not tax the full-page
  /// region's over-provisioning.
  SimTime release_idle_blocks(SimTime now);

  /// Static wear leveling over the region's sealed blocks (see
  /// BlockPoolCore::static_wear_level).
  SimTime static_wear_level(SimTime now, std::uint32_t pe_threshold);

  std::uint64_t blocks_in_use() const { return core_.blocks_in_use(); }
  /// Live subpages, which is also the number of mapped sectors.
  std::uint64_t valid_sectors() const { return core_.valid_slots(); }
  const Config& config() const { return config_; }
  /// Block ownership: health rows (ESP level and valid subpages; capacity
  /// = pages per block, a page holds at most one valid subpage), owned P/E
  /// cycles.
  const BlockPoolCore& core() const { return core_; }

  /// Attaches a telemetry facade (nullptr detaches); forward migrations,
  /// GC collections and retention evictions become mechanism-lane events.
  void set_telemetry(telemetry::Telemetry* tel) { core_.set_telemetry(tel); }

  /// Snapshot support: the core's block state (live-subpage program times
  /// included), retention queue, idle candidates, hot bits and the sector
  /// map. Pooled scratch is NOT archived (pure allocation reuse, no
  /// behavior). Load throws on a map entry FullPagePool::load_state would
  /// refuse, one that names a superseded ESP slot of its page, or a hot
  /// bit on an unmapped sector.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  /// Programs `sector` into a free slot and maps it, without superseding
  /// anything (GC rewrites sectors whose old slot it has already cleared).
  /// nullopt when no slot is available.
  std::optional<SimTime> place(std::uint64_t sector, std::uint64_t token,
                               SimTime now);
  /// Marks `sector`'s live subpage stale and unmaps it.
  void invalidate(std::uint64_t sector);
  /// Unmaps sectors leaving the region and merges them into evict_.
  SimTime evict(std::span<const SectorWrite> batch, SimTime now);
  /// Finds (possibly creating/advancing) a free slot on `chip` and returns
  /// it; forwards valid data encountered on the way. Returns false when the
  /// chip has no capacity left at any level.
  bool acquire_slot(std::uint32_t chip, SimTime& t, std::uint32_t* blk,
                    std::uint32_t* page, std::uint32_t* slot);
  /// Forwards the valid subpage of (chip, blk, page) into the next slot.
  SimTime forward_page(std::uint32_t chip, std::uint32_t blk,
                       std::uint32_t page, std::uint32_t to_slot, SimTime now);
  /// One GC pass. With `prefer_chip` set, the victim is chosen on that
  /// chip when it owns any collectable block (keeps per-chip write points
  /// alive so the multi-channel pipeline stays balanced); otherwise the
  /// region-wide minimum-valid block is collected.
  SimTime collect(SimTime now,
                  std::optional<std::uint32_t> prefer_chip = std::nullopt);
  /// Relocates/evicts every valid subpage of the block, erases it, and
  /// returns it to the allocator (shared by GC and static wear leveling).
  SimTime collect_block(std::size_t idx, SimTime now, bool for_wear_leveling);
  bool can_alloc_fresh() const;
  /// Erases + releases one garbage-only block (shared body of the scan and
  /// indexed release_idle_blocks variants).
  SimTime release_idle_block(std::size_t idx, SimTime now);
  SimTime retention_scan_reference(SimTime now);
  SimTime retention_scan_indexed(SimTime now);
  /// Evicts the expired pages of one block (identical op sequence for both
  /// retention variants). `t` is the running completion time.
  SimTime retention_evict_pages(std::size_t idx,
                                std::span<const std::uint32_t> pages,
                                SimTime t);

  nand::NandDevice& dev_;
  Config config_;
  FtlStats& stats_;
  EvictionTarget& evict_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;
  BlockPoolCore core_;
  /// The region's sector map, as flat per-sector arrays: the small-write/
  /// read hot path costs one indexed load instead of a hash+probe. The
  /// MODELED mapping cost stays the paper's hash table -- 16 bytes per live
  /// entry (valid_sectors()) -- not these simulator-side arrays.
  std::vector<std::uint64_t> map_;  ///< sector -> linear subpage
  std::vector<bool> hot_;
  /// Incremental maintenance indices (see docs/PERFORMANCE.md). The
  /// retention queue records every subpage program; idle_candidates_
  /// records every seal of an empty block and every transition of a
  /// non-active block to zero valid data (the core's wear index records
  /// every seal). All tolerate stale entries -- the consumers re-validate
  /// against the block metadata -- so no eager removal is needed on
  /// invalidate/GC.
  RetentionQueue retention_queue_;
  std::vector<std::size_t> idle_candidates_;
  /// Pooled scratch (capacity persists across passes; no per-pass heap
  /// churn). GC and retention never nest within this pool, so each path
  /// owns its vector outright.
  std::vector<SectorWrite> gc_evictions_;
  std::vector<SectorWrite> retention_evictions_;
  std::vector<RetentionQueue::Entry> retention_expired_;
  std::vector<std::uint32_t> retention_pages_;
  /// Floor of free blocks below which the region stops EXPANDING (taking
  /// fresh blocks) and recycles its own instead: the reserve plus 1/32 of
  /// the device (at least one block per chip), so an eagerly-growing region
  /// does not consume the over-provisioning the full-page region's GC
  /// efficiency depends on.
  std::size_t expand_reserve_blocks_;
  bool in_gc_ = false;
  std::uint32_t gc_dest_allocs_ = 0;  ///< fresh blocks opened by this GC pass
};

}  // namespace esp::ftl
