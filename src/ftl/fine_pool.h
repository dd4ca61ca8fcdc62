// Fine-grained (sector-mapped) storage pool -- the FGM scheme's physical
// layer (paper Sec. 2).
//
// Flash programs are always full-page operations, but validity and mapping
// are tracked per 4-KB sector: a page program carries 1..Nsub live sectors
// and padding for the rest. When the write buffer manages to merge Nsub
// sectors, space efficiency is perfect; a lone synchronous 4-KB write burns
// a full page for one live sector -- the internal fragmentation that
// drives FGM's GC overhead on sync-heavy workloads. Block ownership, victim
// choice and wear leveling live in BlockPoolCore; this class keeps the
// sector -> subpage map, the sector-group placement and the GC repack / log
// eviction. GC updates the map in place.
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

class FinePool {
 public:
  using Config = PoolConfig;

  /// Maps sectors [0, sectors). With `log_target` set the pool is a log
  /// region: GC merges every live sector of its victim into the target
  /// (unmapping them here) instead of repacking within the pool -- the
  /// cleaning policy of sector-log-style hybrid FTLs.
  FinePool(nand::NandDevice& dev, BlockAllocator& allocator,
           const Config& config, FtlStats& stats, std::uint64_t sectors,
           EvictionTarget* log_target = nullptr);

  /// Linear subpage address of `sector`'s live copy, or nand::kUnmapped.
  std::uint64_t subpage_of(std::uint64_t sector) const { return map_[sector]; }
  std::uint64_t sectors() const { return map_.size(); }

  /// Programs ONE full page carrying the given 1..Nsub sectors (padding
  /// elsewhere). Their previous copies go stale first, then GC runs if
  /// space is tight. Returns the completion time.
  SimTime write_group(std::span<const SectorWrite> group, SimTime now);

  /// Drops `sector`'s copy (TRIM, or a newer copy elsewhere); a no-op when
  /// it has none.
  void drop(std::uint64_t sector);

  /// Runs GC while space pressure persists.
  SimTime maybe_gc(SimTime now);

  /// Static wear leveling over this pool's sealed blocks (see
  /// BlockPoolCore::static_wear_level).
  SimTime static_wear_level(SimTime now, std::uint32_t pe_threshold);

  std::uint64_t blocks_in_use() const { return core_.blocks_in_use(); }
  /// Live sectors, which is also the number of mapped sectors.
  std::uint64_t valid_sectors() const { return core_.valid_slots(); }
  /// Block ownership: health rows, owned P/E cycles.
  const BlockPoolCore& core() const { return core_; }

  /// Attaches a telemetry facade (nullptr detaches); GC / wear-leveling
  /// block collections are recorded as mechanism-lane op events.
  void set_telemetry(telemetry::Telemetry* tel) { core_.set_telemetry(tel); }

  /// Snapshot support: the core's block state, then the sector map (see
  /// FullPagePool::save_state for the load checks).
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  /// Programs and maps the group without superseding anything (GC repacks
  /// sectors whose old slots it has already cleared).
  SimTime program(std::span<const SectorWrite> group, SimTime now);
  SimTime collect_block(std::size_t idx, SimTime now, bool for_wear_leveling);

  nand::NandDevice& dev_;
  FtlStats& stats_;
  EvictionTarget* log_target_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;
  BlockPoolCore core_;
  util::HugeVector<std::uint64_t> map_;  ///< sector -> linear subpage
  bool in_gc_ = false;
  /// Pooled scratch. collect_block never nests within itself, and a nested
  /// program (GC repack) finishes with write_tokens_ before the outer
  /// program starts filling it.
  std::vector<SectorWrite> gc_live_;
  std::vector<std::uint64_t> write_tokens_;
};

}  // namespace esp::ftl
