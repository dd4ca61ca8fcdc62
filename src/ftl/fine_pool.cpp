#include "ftl/fine_pool.h"

#include <algorithm>
#include <stdexcept>

namespace esp::ftl {

FinePool::FinePool(nand::NandDevice& dev, BlockAllocator& allocator,
                   const Config& config, FtlStats& stats,
                   std::uint64_t sectors, EvictionTarget* log_target)
    : dev_(dev),
      stats_(stats),
      log_target_(log_target),
      geo_(dev.geometry()),
      codec_(geo_),
      core_(dev, allocator, config, stats, telemetry::HealthPool::kFine,
            geo_.pages_per_block * geo_.subpages_per_page) {
  map_.assign(sectors, nand::kUnmapped);
}

SimTime FinePool::write_group(std::span<const SectorWrite> group, SimTime now) {
  if (group.empty() || group.size() > geo_.subpages_per_page)
    throw std::logic_error("FinePool::write_group: bad group size");
  for (const SectorWrite& sw : group) drop(sw.sector);
  return program(group, now);
}

SimTime FinePool::program(std::span<const SectorWrite> group, SimTime now) {
  if (!in_gc_) now = maybe_gc(now);
  const auto chip = core_.ensure_active(now);
  if (!chip)
    throw std::runtime_error(
        "FinePool: out of physical blocks (over-provisioning exhausted)");
  const std::uint32_t blk = *core_.active(*chip);
  const std::size_t idx = core_.index(*chip, blk);
  const std::uint32_t page = core_.block(idx).cursor++;

  std::vector<std::uint64_t>& tokens = write_tokens_;
  tokens.assign(geo_.subpages_per_page, 0);
  for (std::size_t i = 0; i < group.size(); ++i) tokens[i] = group[i].token;

  const nand::PageAddr addr{*chip, blk, page};
  const auto ack = dev_.program_full(addr, tokens, now);
  ++stats_.flash_prog_full;

  for (std::size_t i = 0; i < group.size(); ++i) {
    core_.fill_slot(
        idx, static_cast<std::size_t>(page) * geo_.subpages_per_page + i,
        group[i].sector);
    map_[group[i].sector] = codec_.encode_subpage(
        nand::SubpageAddr{addr, static_cast<std::uint32_t>(i)});
  }
  return ack.done;
}

void FinePool::drop(std::uint64_t sector) {
  if (map_[sector] == nand::kUnmapped) return;
  const nand::SubpageAddr addr = codec_.decode_subpage(map_[sector]);
  const std::size_t idx = core_.index(addr.page.chip, addr.page.block);
  const auto slot =
      static_cast<std::size_t>(addr.page.page) * geo_.subpages_per_page +
      addr.slot;
  if (BlockPoolCore::sealed(core_.invalidate(idx, slot)))
    core_.push_victim(idx);
  map_[sector] = nand::kUnmapped;
}

SimTime FinePool::maybe_gc(SimTime now) {
  return core_.collect_under_pressure(
      now, [this](std::size_t idx, SimTime t) {
        return collect_block(idx, t, /*for_wear_leveling=*/false);
      });
}

SimTime FinePool::static_wear_level(SimTime now, std::uint32_t pe_threshold) {
  return core_.static_wear_level(
      now, pe_threshold, [this](std::size_t idx, SimTime t) {
        return collect_block(idx, t, /*for_wear_leveling=*/true);
      });
}

SimTime FinePool::collect_block(std::size_t idx, SimTime now,
                                bool for_wear_leveling) {
  const MaintenanceTimer timer(stats_, nullptr, &stats_.maint_gc_ns);
  const std::uint32_t chip = core_.chip_of(idx);
  const std::uint32_t blk = core_.block_of(idx);
  const std::uint32_t subs = geo_.subpages_per_page;
  in_gc_ = true;
  telemetry::Telemetry* tel = core_.tel();
  // Repacks (or log-cleaning merges into log_target_) and the final erase
  // all attribute to this GC/WL episode.
  const telemetry::CauseScope cause(
      tel,
      for_wear_leveling ? telemetry::Cause::kWearLevel
                        : telemetry::Cause::kGcCopy,
      idx, now);

  // Gather live sectors page by page (one flash read per page that still
  // holds anything live), then repack them densely into full pages.
  std::vector<SectorWrite>& live = gc_live_;
  live.clear();
  live.reserve(core_.block(idx).valid_count);
  SimTime t = now;
  for (std::uint32_t page = 0; page < geo_.pages_per_block; ++page) {
    bool any = false;
    for (std::uint32_t s = 0; s < subs; ++s)
      any |= core_.valid(idx, static_cast<std::size_t>(page) * subs + s);
    if (!any) continue;
    const auto read = dev_.read_page(nand::PageAddr{chip, blk, page}, now);
    ++stats_.flash_reads;
    t = std::max(t, read.done);
    for (std::uint32_t s = 0; s < subs; ++s) {
      const auto slot_idx = static_cast<std::size_t>(page) * subs + s;
      const std::uint64_t sector = core_.owner(idx, slot_idx);
      if (sector == nand::kUnmapped) continue;
      if (read.status[s] == nand::ReadStatus::kCorrupted ||
          read.status[s] == nand::ReadStatus::kUncorrectable)
        ++stats_.read_failures;
      live.push_back(SectorWrite{sector, read.token[s]});
      core_.clear_slot(idx, slot_idx);
    }
  }
  std::uint64_t copied = 0;
  std::uint64_t evicted = 0;
  if (log_target_ && !for_wear_leveling) {
    // Log-region cleaning: merge every live sector out of this pool.
    if (!live.empty()) {
      stats_.cold_evictions += live.size();
      evicted = live.size();
      for (const SectorWrite& sw : live) map_[sw.sector] = nand::kUnmapped;
      t = log_target_->merge_sectors(live, t);
    }
  } else {
    for (std::size_t i = 0; i < live.size(); i += subs) {
      const std::size_t n = std::min<std::size_t>(subs, live.size() - i);
      t = program(std::span<const SectorWrite>(&live[i], n), t);
      if (for_wear_leveling)
        stats_.wear_level_relocations += n;
      else
        stats_.gc_copy_sectors += n;
      copied += n;
    }
  }
  in_gc_ = false;

  const SimTime done = core_.erase(idx, t);
  if (tel) {
    const auto copy_kind = for_wear_leveling ? telemetry::OpKind::kWearLevel
                                             : telemetry::OpKind::kGcCopy;
    tel->record_op({copy_kind, now, done, copied, evicted});
  }
  core_.release(idx, done);
  return done;
}

void FinePool::save_state(util::StateWriter& w) const {
  w.tag("FPOL");
  core_.save_state(w);
  w.pod_vec(map_);
}

void FinePool::load_state(util::StateReader& r) {
  r.tag("FPOL");
  core_.load_state(r);
  r.pod_fixed(std::span(map_));
  const std::uint64_t per_block = geo_.pages_per_block * geo_.subpages_per_page;
  core_.check_map(map_, [&](std::uint64_t sub_lin) {
    return std::pair{sub_lin / per_block, sub_lin % per_block};
  });
  in_gc_ = false;
}

}  // namespace esp::ftl
