// Coarse-grained (full-page) storage pool.
//
// Implements the CGM scheme's physical layer, shared by cgmFTL (as its only
// pool) and subFTL (as its full-page region): out-of-place full-page
// writes striped round-robin across chips, per-page validity tracking,
// greedy garbage collection (victim = fewest valid pages), and dynamic
// wear leveling via the shared low-P/E-first BlockAllocator. Block
// ownership, victim choice and wear leveling live in BlockPoolCore; this
// class keeps the page-append placement and the GC page copy.
//
// Mapping tables stay in the owning FTL; the pool reports relocations
// through a callback so the FTL can patch its L2P entries.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/block_pool_core.h"
#include "ftl/types.h"
#include "nand/address.h"
#include "nand/device.h"
#include "telemetry/sink.h"

namespace esp::ftl {

class FullPagePool {
 public:
  struct Config : PoolConfig {
    /// Use the NAND copy-back command for GC page moves whose destination
    /// can stay on the source chip: saves both channel transfers per copy.
    bool use_copyback = false;
  };

  /// Invoked when GC moves a logical page: (lpn, new linear page address).
  using RelocateFn =
      std::function<void(std::uint64_t lpn, std::uint64_t new_page_lin)>;

  FullPagePool(nand::NandDevice& dev, BlockAllocator& allocator,
               const Config& config, FtlStats& stats, RelocateFn relocate);

  /// Programs one full page of tokens for `lpn`; runs GC first if space is
  /// tight. Returns the linear page address and the completion time.
  std::pair<std::uint64_t, SimTime> write_page(
      std::uint64_t lpn, std::span<const std::uint64_t> tokens, SimTime now);

  /// Marks a previously written page stale.
  void invalidate(std::uint64_t page_lin);

  /// Read half of a read-modify-write: reads the page at `page_lin` into
  /// `tokens` (one per sector), counting the flash read, the RMW and every
  /// corrupted or uncorrectable sector. Returns the read's completion time.
  SimTime read_for_rmw(std::uint64_t page_lin,
                       std::span<std::uint64_t> tokens, SimTime now);

  /// Read-modify-write merge of sectors leaving another region (the caller
  /// has already dropped their entries there): one page program per
  /// logical page, however many of its sectors `batch` carries, merged
  /// over the old page when `l2p` (the owner's lpn -> page map) has one.
  /// Returns the latest completion time.
  SimTime merge_sectors(std::span<const SectorWrite> batch,
                        std::span<std::uint64_t> l2p, SimTime now);

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

  /// Attaches a telemetry sink (nullptr detaches); GC / wear-leveling
  /// block collections are recorded as mechanism-lane op events.
  void set_telemetry(telemetry::Sink* sink) { core_.set_telemetry(sink); }

  /// Snapshot support (see BlockPoolCore::save_state).
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  /// Reads page `addr` into `tokens`, counting the flash read and every
  /// corrupted or uncorrectable sector. Returns the read's completion.
  SimTime read_tokens(const nand::PageAddr& addr,
                      std::span<std::uint64_t> tokens, SimTime now);
  /// Relocates every valid page of the given sealed block, erases it, and
  /// returns it to the allocator (shared by GC and static wear leveling).
  SimTime collect_block(std::size_t idx, SimTime now, bool for_wear_leveling);

  nand::NandDevice& dev_;
  FtlStats& stats_;
  RelocateFn relocate_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;
  BlockPoolCore core_;
  bool use_copyback_;
  /// Pooled GC read buffer (collect_block never nests within itself).
  std::vector<std::uint64_t> gc_tokens_;
  /// Pooled merge_sectors sort buffer (merge_sectors never nests within
  /// itself: the GC its page writes run relocates, it never merges).
  std::vector<SectorWrite> merge_sorted_;
  bool in_gc_ = false;
};

}  // namespace esp::ftl
