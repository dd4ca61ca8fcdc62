#include "ftl/block_pool_core.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace esp::ftl {

BlockPoolCore::BlockPoolCore(nand::NandDevice& dev, BlockAllocator& allocator,
                             const PoolConfig& config, FtlStats& stats,
                             telemetry::HealthPool kind,
                             std::uint32_t slots_per_block,
                             bool track_write_times)
    : dev_(dev),
      allocator_(allocator),
      config_(config),
      stats_(stats),
      kind_(kind),
      slots_per_block_(slots_per_block),
      blocks_per_chip_(dev.geometry().blocks_per_chip),
      pages_per_block_(dev.geometry().pages_per_block),
      meta_(dev.geometry().total_blocks()),
      track_write_times_(track_write_times),
      owned_by_chip_(dev.geometry().total_chips()),
      active_block_(dev.geometry().total_chips()) {
  const std::size_t blocks = meta_.size();
  slab_owner_.reserve(blocks * slots_per_block_);
  if (track_write_times_) slab_written_at_.reserve(blocks * pages_per_block_);
}

void BlockPoolCore::index_add(std::uint32_t chip, std::uint32_t block) {
  auto& owned = owned_by_chip_[chip];
  owned.insert(std::lower_bound(owned.begin(), owned.end(), block), block);
}

void BlockPoolCore::index_remove(std::uint32_t chip, std::uint32_t block) {
  auto& owned = owned_by_chip_[chip];
  const auto it = std::lower_bound(owned.begin(), owned.end(), block);
  if (it != owned.end() && *it == block) owned.erase(it);
}

const BlockPoolCore::Block& BlockPoolCore::invalidate(std::size_t idx,
                                                      std::size_t slot) {
  const Block& m = meta_[idx];
  if (!m.owned || !valid(idx, slot))
    throw std::logic_error(
        std::string("invalidate: slot not valid in the ") +
        telemetry::health_pool_name(kind_) + " pool");
  clear_slot(idx, slot);
  return m;
}

std::optional<std::uint32_t> BlockPoolCore::open(std::uint32_t chip,
                                                 SimTime now) {
  const auto blk = allocator_.alloc(chip);
  if (!blk) return std::nullopt;
  const std::size_t idx = index(chip, *blk);
  Block& m = meta_[idx];
  m.owned = true;
  index_add(chip, *blk);
  m.active = true;
  m.level = 0;
  m.cursor = 0;
  m.valid_count = 0;
  if (free_slabs_.empty()) {  // grow by one row (within the reservation)
    free_slabs_.push_back(
        static_cast<std::uint32_t>(slab_owner_.size() / slots_per_block_));
    slab_owner_.resize(slab_owner_.size() + slots_per_block_);
    if (track_write_times_)
      slab_written_at_.resize(slab_written_at_.size() + pages_per_block_);
  }
  m.slab = free_slabs_.back();
  free_slabs_.pop_back();
  std::ranges::fill(std::span(slab_owner_)
                        .subspan(row(idx, slots_per_block_), slots_per_block_),
                    nand::kUnmapped);
  if (track_write_times_)
    std::ranges::fill(
        std::span(slab_written_at_)
            .subspan(row(idx, pages_per_block_), pages_per_block_),
        0.0);
  active_block_[chip] = *blk;
  ++blocks_in_use_;
  if (tel_)
    tel_->record_block({telemetry::BlockEventKind::kAllocated, chip, *blk,
                        telemetry::health_pool_name(kind_), 0, 0,
                        dev_.block(chip, *blk).pe_cycles(), now});
  return blk;
}

std::size_t BlockPoolCore::seal(std::uint32_t chip) {
  auto& active = active_block_[chip];
  const std::size_t idx = index(chip, *active);
  meta_[idx].active = false;
  wear_index_.push(dev_.block(chip, *active).pe_cycles(), idx);
  active.reset();
  return idx;
}

std::optional<std::size_t> BlockPoolCore::pop_victim() {
  while (!victim_heap_.empty()) {
    const auto [count, idx] = victim_heap_.top();
    victim_heap_.pop();
    const Block& m = meta_[idx];
    // Skip stale entries: block re-erased / re-opened / count changed (a
    // fresher entry with the smaller count is still in the heap).
    if (!sealed(m) || m.valid_count != count) continue;
    if (m.valid_count == slots_per_block_) return std::nullopt;
    return idx;
  }
  return std::nullopt;
}

std::optional<std::size_t> BlockPoolCore::wear_level_victim(
    std::uint32_t pe_threshold) {
  // Least-worn sealed block vs. the most-worn block on the device: a big
  // gap means this block pins cold data on young flash. The device-wide
  // maximum is tracked monotonically at erase time; the coldest candidate
  // comes from the wear index or, in reference mode, a walk over the owned
  // blocks in ascending (chip, block) order -- the index's (pe, idx) order
  // breaks ties the same way.
  std::optional<std::size_t> coldest;
  std::uint32_t coldest_pe = ~0u;
  const std::uint32_t max_pe = dev_.max_pe_cycles();
  if (config_.reference_scan_maintenance) {
    for (std::uint32_t chip = 0; chip < owned_by_chip_.size(); ++chip) {
      for (const std::uint32_t blk : owned_by_chip_[chip]) {
        const std::size_t idx = index(chip, blk);
        if (!sealed(meta_[idx])) continue;
        const std::uint32_t pe = dev_.block(chip, blk).pe_cycles();
        if (pe < coldest_pe) {
          coldest_pe = pe;
          coldest = idx;
        }
      }
    }
  } else {
    const auto top = wear_index_.peek([&](std::uint32_t pe, std::size_t idx) {
      return sealed(meta_[idx]) &&
             dev_.block(chip_of(idx), block_of(idx)).pe_cycles() == pe;
    });
    if (top) {
      coldest = top->idx;
      coldest_pe = top->pe;
    }
  }
  if (!coldest || max_pe - coldest_pe <= pe_threshold) return std::nullopt;
  if (allocator_.total_free() == 0) return std::nullopt;  // nowhere to move
  return coldest;
}

SimTime BlockPoolCore::erase(std::size_t idx, SimTime now) {
  const auto ack = dev_.erase_block(chip_of(idx), block_of(idx), now);
  ++stats_.flash_erases;
  return ack.done;
}

void BlockPoolCore::release(std::size_t idx, SimTime done) {
  const std::uint32_t chip = chip_of(idx);
  const std::uint32_t blk = block_of(idx);
  Block& m = meta_[idx];
  const std::uint32_t pe = dev_.block(chip, blk).pe_cycles();
  if (tel_) {
    const char* pool = telemetry::health_pool_name(kind_);
    tel_->record_block({telemetry::BlockEventKind::kErased, chip, blk, pool,
                        m.level, m.valid_count, pe, done});
    tel_->record_block({telemetry::BlockEventKind::kRetired, chip, blk, pool,
                        0, 0, pe, done});
  }
  m.owned = false;
  m.active = false;
  index_remove(chip, blk);
  free_slabs_.push_back(m.slab);
  m.slab = kNoSlab;
  --blocks_in_use_;
  allocator_.release(chip, blk, pe);
}

std::vector<std::uint32_t> BlockPoolCore::owned_pe_cycles() const {
  std::vector<std::uint32_t> pes;
  for (std::uint32_t chip = 0; chip < owned_by_chip_.size(); ++chip) {
    pes.reserve(pes.size() + owned_by_chip_[chip].size());
    for (const std::uint32_t blk : owned_by_chip_[chip])
      pes.push_back(dev_.block(chip, blk).pe_cycles());
  }
  return pes;
}

void BlockPoolCore::fill_health(std::span<telemetry::BlockHealth> out) const {
  for (std::uint32_t chip = 0; chip < owned_by_chip_.size(); ++chip) {
    for (const std::uint32_t blk : owned_by_chip_[chip]) {
      const std::size_t idx = index(chip, blk);
      if (idx >= out.size()) continue;
      out[idx].pool = static_cast<std::uint8_t>(kind_);
      out[idx].level = meta_[idx].level;
      out[idx].valid = meta_[idx].valid_count;
      out[idx].valid_cap = slots_per_block_;
    }
  }
}

void BlockPoolCore::save_state(util::StateWriter& w) const {
  w.tag("BPCO");
  w.u64(meta_.size());
  for (const Block& m : meta_) {
    w.b(m.owned);
    w.b(m.active);
    w.u8(m.level);
    w.u32(m.cursor);
    w.u32(m.valid_count);
    w.u32(m.slab);
  }
  w.pod_vec(slab_owner_);
  w.pod_vec(slab_written_at_);
  w.pod_vec(free_slabs_);
  w.u64(owned_by_chip_.size());
  for (const auto& owned : owned_by_chip_) w.pod_vec(owned);
  for (const auto& ab : active_block_) {
    w.b(ab.has_value());
    w.u32(ab.value_or(0));
  }
  w.pair_vec(util::heap_container(victim_heap_));
  wear_index_.save_state(w);
  w.u32(rr_chip_);
  w.u64(blocks_in_use_);
  w.u64(valid_slots_);
}

void BlockPoolCore::load_state(util::StateReader& r) {
  r.tag("BPCO");
  if (r.u64() != meta_.size())
    throw std::runtime_error("BlockPoolCore::load_state: block count mismatch");
  for (Block& m : meta_) {
    m.owned = r.b();
    m.active = r.b();
    m.level = r.u8();
    m.cursor = r.u32();
    m.valid_count = r.u32();
    m.slab = r.u32();
  }
  r.pod_vec(slab_owner_);
  r.pod_vec(slab_written_at_);
  r.pod_vec(free_slabs_);
  check_slabs();
  if (r.u64() != owned_by_chip_.size())
    throw std::runtime_error("BlockPoolCore::load_state: chip count mismatch");
  for (auto& owned : owned_by_chip_) r.pod_vec(owned);
  for (auto& ab : active_block_) {
    const bool has = r.b();
    const std::uint32_t blk = r.u32();
    ab = has ? std::optional<std::uint32_t>(blk) : std::nullopt;
  }
  r.pair_vec(util::heap_container(victim_heap_));
  wear_index_.load_state(r);
  rr_chip_ = r.u32();
  blocks_in_use_ = r.u64();
  valid_slots_ = r.u64();
}

void BlockPoolCore::map_error(const std::string& what) const {
  throw std::runtime_error(std::string("load_state: ") +
                           telemetry::health_pool_name(kind_) +
                           " pool map: " + what);
}

void BlockPoolCore::check_slabs() const {
  const auto fail = [](const char* what) {
    throw std::runtime_error(std::string("BlockPoolCore::load_state: ") +
                             what);
  };
  const std::size_t slabs = slab_owner_.size() / slots_per_block_;
  if (slab_owner_.size() % slots_per_block_ != 0 || slabs > meta_.size())
    fail("corrupt owner slabs");
  if (slab_written_at_.size() != (track_write_times_ ? slabs * pages_per_block_
                                                     : 0))
    fail("corrupt write-time slabs");
  // Every slab is either one owned block's row or on the free list, once.
  std::vector<bool> used(slabs, false);
  const auto take = [&](std::uint32_t slab) {
    if (slab >= slabs) fail("slab id out of range");
    if (used[slab]) fail("slab id used twice");
    used[slab] = true;
  };
  for (std::size_t idx = 0; idx < meta_.size(); ++idx) {
    const Block& m = meta_[idx];
    if (!m.owned) {
      if (m.slab != kNoSlab) fail("unowned block holds a slab");
      continue;
    }
    take(m.slab);
    const auto live = std::ranges::count_if(
        std::span(slab_owner_)
            .subspan(row(idx, slots_per_block_), slots_per_block_),
        [](std::uint64_t o) { return o != nand::kUnmapped; });
    if (static_cast<std::uint32_t>(live) != m.valid_count)
      fail("valid count disagrees with the owner slab");
  }
  for (const std::uint32_t slab : free_slabs_) take(slab);
  if (std::find(used.begin(), used.end(), false) != used.end())
    fail("slab neither owned nor free");
}

}  // namespace esp::ftl
