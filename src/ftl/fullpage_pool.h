// Coarse-grained (full-page) storage pool.
//
// Implements the CGM scheme's physical layer, shared by cgmFTL (as its only
// pool), subFTL (as its full-page region) and sectorLogFTL (as its data
// region): out-of-place full-page writes striped round-robin across chips,
// per-page validity tracking, greedy garbage collection (victim = fewest
// valid pages), and dynamic wear leveling via the shared low-P/E-first
// BlockAllocator. Block ownership, victim choice and wear leveling live in
// BlockPoolCore; this class keeps the lpn -> page map, the page-append
// placement and the GC page copy. GC updates the map in place.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/block_pool_core.h"
#include "ftl/types.h"
#include "nand/address.h"
#include "nand/device.h"
#include "telemetry/telemetry.h"
#include "util/huge_pages.h"

namespace esp::ftl {

class FullPagePool final : public EvictionTarget {
 public:
  struct Config : PoolConfig {
    /// Use the NAND copy-back command for GC page moves whose destination
    /// can stay on the source chip: saves both channel transfers per copy.
    bool use_copyback = false;
  };

  /// Maps logical pages [0, lpns).
  FullPagePool(nand::NandDevice& dev, BlockAllocator& allocator,
               const Config& config, FtlStats& stats, std::uint64_t lpns);

  /// Linear address of `lpn`'s live page, or nand::kUnmapped.
  std::uint64_t page_of(std::uint64_t lpn) const { return l2p_[lpn]; }
  std::uint64_t lpns() const { return l2p_.size(); }

  /// Programs one full page of tokens for `lpn`. Its previous page goes
  /// stale first, then GC runs if space is tight. Returns the completion.
  SimTime write_page(std::uint64_t lpn, std::span<const std::uint64_t> tokens,
                     SimTime now);

  /// Drops `lpn`'s page (TRIM); a no-op when it has none.
  void drop(std::uint64_t lpn);

  /// Read half of a read-modify-write: reads `lpn`'s (mapped) page into
  /// `tokens` (one per sector), counting the flash read, the RMW and every
  /// corrupted or uncorrectable sector. Returns the read's completion time.
  SimTime read_for_rmw(std::uint64_t lpn, std::span<std::uint64_t> tokens,
                       SimTime now);

  /// Read-modify-write of `sectors`, all of logical page `lpn`: merged over
  /// its current page when it has one, then programmed as one page. An RMW
  /// op event spans [now, completion]. Returns the completion time.
  SimTime merge_page(std::uint64_t lpn, std::span<const SectorWrite> sectors,
                     SimTime now);

  /// Eviction target: one merge_page per logical page, however many of
  /// its sectors `batch` carries. Returns the latest completion time.
  SimTime merge_sectors(std::span<const SectorWrite> batch,
                        SimTime now) override;

  /// Runs GC while the pool is over quota or the allocator is below
  /// reserve; returns the (possibly advanced) time.
  SimTime maybe_gc(SimTime now);

  /// Static wear leveling over this pool's sealed blocks (see
  /// BlockPoolCore::static_wear_level).
  SimTime static_wear_level(SimTime now, std::uint32_t pe_threshold);

  std::uint64_t blocks_in_use() const { return core_.blocks_in_use(); }
  std::uint64_t valid_pages() const { return core_.valid_slots(); }
  /// Block ownership: health rows, owned P/E cycles.
  const BlockPoolCore& core() const { return core_; }

  /// Attaches a telemetry facade (nullptr detaches); GC / wear-leveling
  /// block collections are recorded as mechanism-lane op events.
  void set_telemetry(telemetry::Telemetry* tel) { core_.set_telemetry(tel); }

  /// Snapshot support: the core's block state, then the lpn -> page map.
  /// Load throws when a mapped page is not live or belongs to another lpn,
  /// or when the mapped count differs from the valid page count.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  /// Programs `lpn`'s page and maps it, without superseding anything (GC
  /// moves data whose old slot it has already cleared).
  SimTime program(std::uint64_t lpn, std::span<const std::uint64_t> tokens,
                  SimTime now);
  /// Reads page `addr` into `tokens`, counting the flash read and every
  /// corrupted or uncorrectable sector. Returns the read's completion.
  SimTime read_tokens(const nand::PageAddr& addr,
                      std::span<std::uint64_t> tokens, SimTime now);
  /// Relocates every valid page of the given sealed block, erases it, and
  /// returns it to the allocator (shared by GC and static wear leveling).
  SimTime collect_block(std::size_t idx, SimTime now, bool for_wear_leveling);

  nand::NandDevice& dev_;
  FtlStats& stats_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;
  BlockPoolCore core_;
  bool use_copyback_;
  util::HugeVector<std::uint64_t> l2p_;  ///< lpn -> linear page (kUnmapped)
  /// Pooled GC read buffer (collect_block never nests within itself).
  std::vector<std::uint64_t> gc_tokens_;
  /// Pooled merge_sectors sort buffer (merge_sectors never nests within
  /// itself: the GC its page writes run relocates, it never merges).
  std::vector<SectorWrite> merge_sorted_;
  bool in_gc_ = false;
};

}  // namespace esp::ftl
