#include "ftl/subpage_pool.h"

#include <algorithm>
#include <stdexcept>

#include "util/logger.h"

namespace esp::ftl {

SubpagePool::SubpagePool(nand::NandDevice& dev, BlockAllocator& allocator,
                         const Config& config, FtlStats& stats,
                         std::uint64_t sectors, EvictionTarget& evict)
    : dev_(dev),
      config_(config),
      stats_(stats),
      evict_(evict),
      geo_(dev.geometry()),
      codec_(geo_),
      core_(dev, allocator, config, stats, telemetry::HealthPool::kSub,
            geo_.pages_per_block, /*track_write_times=*/true),
      map_(sectors, nand::kUnmapped),
      hot_(sectors, false),
      // Bucket width: a fraction of the eviction age so the boundary
      // bucket a scan re-examines holds only the youngest ~3% of the
      // retention window's writes.
      retention_queue_(config.retention_evict_age / 32.0),
      expand_reserve_blocks_(
          config.reserve_free_blocks +
          std::max<std::size_t>(geo_.total_blocks() / 32,
                                geo_.total_chips())) {
  if (config_.quota_blocks == 0)
    throw std::invalid_argument("SubpagePool: quota_blocks must be > 0");
}

bool SubpagePool::can_alloc_fresh() const {
  // During GC the destination block is the paper's "free block reserved for
  // garbage collection": ONE extra block per pass, beyond quota if needed
  // (the victim's erase at the end of the pass restores the balance). It
  // may dip halfway into the allocator reserve -- the other half stays
  // available for the full-page region's own GC, which the eviction
  // fallback depends on.
  if (in_gc_)
    return gc_dest_allocs_ < 1 &&
           core_.free_blocks() > config_.reserve_free_blocks / 2;
  return core_.blocks_in_use() < config_.quota_blocks &&
         core_.free_blocks() > expand_reserve_blocks_;
}

SimTime SubpagePool::forward_page(std::uint32_t chip, std::uint32_t blk,
                                  std::uint32_t page, std::uint32_t to_slot,
                                  SimTime now) {
  telemetry::Telemetry* tel = core_.tel();
  const telemetry::CauseScope cause(
      tel, telemetry::Cause::kForwardMigration, to_slot, now);
  const std::size_t idx = core_.index(chip, blk);
  const nand::PageAddr pa{chip, blk, page};
  // The live data sits in the page's latest programmed slot.
  const auto from_slot = to_slot - 1;
  const auto read = dev_.read_subpage(nand::SubpageAddr{pa, from_slot}, now);
  ++stats_.flash_reads;
  if (read.status != nand::ReadStatus::kOk) ++stats_.read_failures;
  const auto ack =
      dev_.program_subpage(nand::SubpageAddr{pa, to_slot}, read.token,
                           read.done);
  ++stats_.flash_prog_sub;
  ++stats_.forward_migrations;
  stats_.small_extra_flash_bytes += geo_.subpage_bytes();
  core_.written_at(idx, page) = read.done;
  if (!config_.reference_scan_maintenance)
    retention_queue_.push(idx, page, read.done);
  map_[core_.owner(idx, page)] =
      codec_.encode_subpage(nand::SubpageAddr{pa, to_slot});
  if (tel)
    tel->record_op(
        {telemetry::OpKind::kForwardMigration, now, ack.done, to_slot});
  return ack.done;
}

bool SubpagePool::acquire_slot(std::uint32_t chip, SimTime& t,
                               std::uint32_t* blk, std::uint32_t* page,
                               std::uint32_t* slot) {
  for (;;) {
    auto& active = core_.active(chip);
    if (active) {
      const std::size_t idx = core_.index(chip, *active);
      BlockPoolCore::Block& m = core_.block(idx);
      while (m.cursor < geo_.pages_per_block) {
        const std::uint32_t p = m.cursor;
        if (core_.valid(idx, p)) {
          // Valid data in the way: forward it into this level's slot and
          // keep walking (the paper's Fig. 7(c) migration).
          t = forward_page(chip, *active, p, m.level, t);
          ++m.cursor;
          continue;
        }
        *blk = *active;
        *page = p;
        *slot = m.level;
        ++m.cursor;
        return true;
      }
      // Sealed at this level; an empty block is an idle-release candidate.
      core_.seal(chip);
      if (m.valid_count == 0) idle_candidates_.push_back(idx);
    }
    // Prefer opening a fresh block (keeps every block's 0th subpages in
    // play before any 1st subpage is written).
    if (can_alloc_fresh() && core_.open(chip, t)) {
      if (in_gc_) ++gc_dest_allocs_;
      continue;
    }
    // Advance the best sealed block on this chip to its next level:
    // a block with no valid subpages first, otherwise fewest valid. Blocks
    // denser than the advance threshold are left for GC -- forwarding
    // nearly-full blocks costs a subpage write per page for almost no free
    // slots, while GC's hot/cold filter can demote the data instead.
    const auto advance_limit = static_cast<std::uint32_t>(
        config_.advance_max_valid_fraction * geo_.pages_per_block);
    std::optional<std::uint32_t> best;
    std::uint32_t best_valid = ~0u;
    for (const std::uint32_t b : core_.owned(chip)) {
      const BlockPoolCore::Block& m = core_.block(core_.index(chip, b));
      if (m.active) continue;
      if (m.level + 1u >= geo_.subpages_per_page) continue;  // maxed out
      if (m.valid_count > advance_limit) continue;           // too dense
      if (m.valid_count < best_valid) {
        best_valid = m.valid_count;
        best = b;
        if (best_valid == 0) break;
      }
    }
    if (!best) return false;  // chip exhausted at every level
    BlockPoolCore::Block& m = core_.block(core_.index(chip, *best));
    ++m.level;
    m.cursor = 0;
    m.active = true;
    active = *best;
    if (telemetry::Telemetry* tel = core_.tel())
      tel->record_block({telemetry::BlockEventKind::kLevelAdvanced, chip,
                         *best, "sub", m.level, m.valid_count,
                         dev_.block(chip, *best).pe_cycles(), t});
  }
}

std::optional<SimTime> SubpagePool::try_write_sector(std::uint64_t sector,
                                                     std::uint64_t token,
                                                     SimTime now) {
  if (map_[sector] != nand::kUnmapped) {
    // Re-update of a resident sector: the old subpage goes stale and the
    // sector is proven hot.
    invalidate(sector);
    hot_[sector] = true;
  }
  if (const auto done = place(sector, token, now)) return done;
  hot_[sector] = false;
  return std::nullopt;
}

std::optional<SimTime> SubpagePool::place(std::uint64_t sector,
                                          std::uint64_t token, SimTime now) {
  auto program_at = [&](std::uint32_t chip, std::uint32_t blk,
                        std::uint32_t page, std::uint32_t slot, SimTime t) {
    core_.rotate_past(chip);
    const nand::PageAddr pa{chip, blk, page};
    const auto ack = dev_.program_subpage(nand::SubpageAddr{pa, slot}, token, t);
    ++stats_.flash_prog_sub;
    const std::size_t idx = core_.index(chip, blk);
    core_.fill_slot(idx, page, sector);
    core_.written_at(idx, page) = t;
    if (!config_.reference_scan_maintenance)
      retention_queue_.push(idx, page, t);
    map_[sector] = codec_.encode_subpage(nand::SubpageAddr{pa, slot});
    return ack.done;
  };

  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t attempt = 0; attempt < geo_.total_chips(); ++attempt) {
      const std::uint32_t chip =
          (core_.rr_chip() + attempt) % geo_.total_chips();
      SimTime t = now;
      std::uint32_t blk = 0, page = 0, slot = 0;
      if (acquire_slot(chip, t, &blk, &page, &slot))
        return program_at(chip, blk, page, slot, t);
      // The rotation's primary chip is exhausted: reclaim on THAT chip so
      // writes keep striping over every channel instead of piling onto the
      // survivors (per-chip write points are the parallelism the paper's
      // multi-channel design depends on).
      if (!in_gc_ && round == 0 && attempt == 0) {
        const SimTime after = collect(now, chip);
        if (after != now) {
          now = after;
          t = now;
          if (acquire_slot(chip, t, &blk, &page, &slot))
            return program_at(chip, blk, page, slot, t);
        }
      }
    }
    if (round == 0 && !in_gc_) {
      // Every chip is exhausted: reclaim a small pool of erased blocks so
      // subsequent writes spread across fresh level-0 slots.
      for (std::uint32_t i = 0; i < std::max(1u, config_.gc_free_target);
           ++i) {
        const SimTime after = collect(now);
        if (after == now) break;  // no more victims
        now = after;
      }
    } else {
      break;
    }
  }
  return std::nullopt;
}

void SubpagePool::invalidate(std::uint64_t sector) {
  const nand::SubpageAddr addr = codec_.decode_subpage(map_[sector]);
  const std::size_t idx = core_.index(addr.page.chip, addr.page.block);
  // Guard against stale pointers: the live copy must be the page's latest
  // programmed slot.
  const auto programmed =
      dev_.block(addr.page.chip, addr.page.block)
          .slots_programmed(addr.page.page);
  if (addr.slot + 1 != programmed)
    throw std::logic_error(
        "SubpagePool::invalidate: address does not match live slot");
  const BlockPoolCore::Block& m = core_.invalidate(idx, addr.page.page);
  if (m.valid_count == 0 && !m.active) idle_candidates_.push_back(idx);
  map_[sector] = nand::kUnmapped;
}

SimTime SubpagePool::evict(std::span<const SectorWrite> batch, SimTime now) {
  for (const SectorWrite& sw : batch) {
    map_[sw.sector] = nand::kUnmapped;
    hot_[sw.sector] = false;
  }
  return evict_.merge_sectors(batch, now);
}

SimTime SubpagePool::collect(SimTime now,
                             std::optional<std::uint32_t> prefer_chip) {
  // Victim: owned, non-active block with the fewest valid subpages,
  // restricted to prefer_chip when it has any candidate.
  std::optional<std::size_t> victim_idx;
  std::uint32_t best_valid = ~0u;
  auto scan_chip = [&](std::uint32_t chip) {
    for (const std::uint32_t b : core_.owned(chip)) {
      const std::size_t idx = core_.index(chip, b);
      const BlockPoolCore::Block& m = core_.block(idx);
      if (m.active) continue;
      if (m.valid_count < best_valid) {
        best_valid = m.valid_count;
        victim_idx = idx;
      }
    }
  };
  if (prefer_chip) scan_chip(*prefer_chip);
  if (!victim_idx)
    for (std::uint32_t chip = 0; chip < geo_.total_chips(); ++chip)
      scan_chip(chip);
  if (!victim_idx) return now;
  ++stats_.gc_invocations;
  return collect_block(*victim_idx, now, /*for_wear_leveling=*/false);
}

SimTime SubpagePool::collect_block(std::size_t idx, SimTime now,
                                   bool for_wear_leveling) {
  const MaintenanceTimer timer(stats_, nullptr, &stats_.maint_gc_ns);
  in_gc_ = true;
  gc_dest_allocs_ = 0;

  const std::uint32_t chip = core_.chip_of(idx);
  const std::uint32_t blk = core_.block_of(idx);
  telemetry::Telemetry* tel = core_.tel();
  // Everything in this pass -- forwards, hot rewrites, evictions into the
  // full-page region, the final erase -- attributes to this GC episode.
  const telemetry::CauseScope cause(
      tel,
      for_wear_leveling ? telemetry::Cause::kWearLevel
                        : telemetry::Cause::kGcCopy,
      idx, now);
  BlockPoolCore::Block& victim = core_.block(idx);
  // Lock the victim so the hot-rewrite path below can neither advance it
  // nor write into it -- its erase is already committed.
  victim.active = true;
  SimTime t = now;
  std::uint64_t kept_sectors = 0;
  std::vector<SectorWrite>& evictions = gc_evictions_;
  evictions.clear();
  evictions.reserve(victim.valid_count);
  for (std::uint32_t page = 0; page < geo_.pages_per_block; ++page) {
    const std::uint64_t sector = core_.owner(idx, page);
    if (sector == nand::kUnmapped) continue;
    const auto live_slot = dev_.block(chip, blk).slots_programmed(page) - 1;
    const auto read = dev_.read_subpage(
        nand::SubpageAddr{nand::PageAddr{chip, blk, page}, live_slot}, t);
    ++stats_.flash_reads;
    if (read.status != nand::ReadStatus::kOk) ++stats_.read_failures;
    core_.clear_slot(idx, page);
    if (hot_[sector]) {
      // Updated since entering the region: likely to be updated again --
      // keep it close (rewrite into the region). If the region is too
      // tight to accept it, demote it to the full-page region instead.
      if (const auto placed = place(sector, read.token, read.done)) {
        if (for_wear_leveling)
          ++stats_.wear_level_relocations;
        else
          ++stats_.gc_copy_sectors;
        stats_.small_extra_flash_bytes += geo_.subpage_bytes();
        // The rewrite counts as the sector's (re-)entry into the region:
        // it must be updated again to stay hot next time.
        hot_[sector] = false;
        ++kept_sectors;
        t = *placed;
        continue;
      }
    }
    // Never updated here (or region full): cold -- batch for eviction to
    // the full-page region, merged per logical page by the receiver.
    ++stats_.cold_evictions;
    evictions.push_back(SectorWrite{sector, read.token});
    t = std::max(t, read.done);
  }
  if (!evictions.empty()) t = evict(evictions, t);

  const SimTime done = core_.erase(idx, t);
  core_.release(idx, done);
  in_gc_ = false;
  if (tel) {
    const auto copy_kind = for_wear_leveling ? telemetry::OpKind::kWearLevel
                                             : telemetry::OpKind::kGcCopy;
    tel->record_op({copy_kind, now, done, kept_sectors, evictions.size()});
  }
  ESP_LOG_DEBUG("%s collected subpage block chip=%u blk=%u kept=%llu "
                "evicted=%zu",
                for_wear_leveling ? "wear-level" : "gc",
                static_cast<unsigned>(chip), static_cast<unsigned>(blk),
                static_cast<unsigned long long>(kept_sectors),
                evictions.size());
  return done;
}

SimTime SubpagePool::release_idle_block(std::size_t idx, SimTime now) {
  // Keep pristine never-programmed blocks? They do not exist here: a
  // block is only owned once it has received writes.
  ++stats_.gc_invocations;  // garbage-only collection, zero copies
  const telemetry::CauseScope cause(core_.tel(), telemetry::Cause::kGcCopy,
                                    idx, now);
  const SimTime done = core_.erase(idx, now);
  core_.release(idx, done);
  return done;
}

SimTime SubpagePool::release_idle_blocks(SimTime now) {
  const MaintenanceTimer timer(stats_, &stats_.maint_release_idle_calls,
                               &stats_.maint_release_idle_ns);
  if (config_.reference_scan_maintenance) {
    // Original O(owned) sweep, kept as the differential baseline.
    for (std::uint32_t chip = 0; chip < geo_.total_chips(); ++chip) {
      const auto& owned = core_.owned(chip);
      for (std::size_t i = 0; i < owned.size();) {
        const std::size_t idx = core_.index(chip, owned[i]);
        const BlockPoolCore::Block& m = core_.block(idx);
        if (m.active || m.valid_count != 0) {
          ++i;
          continue;
        }
        now = release_idle_block(idx, now);  // removes owned[i]
      }
    }
    return now;
  }
  // Indexed: only blocks recorded at an idle transition since the last call
  // are candidates. Sorting ascending reproduces the sweep's
  // chip-asc/block-asc release order; stale entries (re-activated, refilled
  // or released blocks) fail re-validation and drop out. Blocks skipped
  // here are re-recorded at their next idle transition, so clearing the
  // list afterwards loses nothing.
  std::sort(idle_candidates_.begin(), idle_candidates_.end());
  idle_candidates_.erase(
      std::unique(idle_candidates_.begin(), idle_candidates_.end()),
      idle_candidates_.end());
  for (const std::size_t idx : idle_candidates_) {
    const BlockPoolCore::Block& m = core_.block(idx);
    if (!m.owned || m.active || m.valid_count != 0) continue;
    now = release_idle_block(idx, now);
  }
  idle_candidates_.clear();
  return now;
}

SimTime SubpagePool::static_wear_level(SimTime now,
                                       std::uint32_t pe_threshold) {
  return core_.static_wear_level(
      now, pe_threshold, [this](std::size_t idx, SimTime t) {
        return collect_block(idx, t, /*for_wear_leveling=*/true);
      });
}

SimTime SubpagePool::retention_evict_pages(std::size_t idx,
                                           std::span<const std::uint32_t> pages,
                                           SimTime t) {
  const std::uint32_t chip = core_.chip_of(idx);
  const std::uint32_t b = core_.block_of(idx);
  const BlockPoolCore::Block& m = core_.block(idx);
  const SimTime block_start = t;
  retention_evictions_.clear();
  for (const std::uint32_t page : pages) {
    const std::uint64_t sector = core_.owner(idx, page);
    if (sector == nand::kUnmapped) continue;  // duplicate queue entries
    const auto live_slot = dev_.block(chip, b).slots_programmed(page) - 1;
    const auto read = dev_.read_subpage(
        nand::SubpageAddr{nand::PageAddr{chip, b, page}, live_slot}, t);
    ++stats_.flash_reads;
    if (read.status != nand::ReadStatus::kOk) ++stats_.read_failures;
    core_.clear_slot(idx, page);
    ++stats_.retention_evictions;
    retention_evictions_.push_back(SectorWrite{sector, read.token});
    t = std::max(t, read.done);
  }
  if (!retention_evictions_.empty()) {
    telemetry::Telemetry* tel = core_.tel();
    const telemetry::CauseScope cause(tel, telemetry::Cause::kRetentionEvict,
                                      idx, block_start);
    t = evict(retention_evictions_, t);
    if (tel)
      tel->record_op({telemetry::OpKind::kRetentionEvict, block_start, t,
                      retention_evictions_.size()});
  }
  if (m.valid_count == 0 && !m.active) idle_candidates_.push_back(idx);
  return t;
}

SimTime SubpagePool::retention_scan(SimTime now) {
  const MaintenanceTimer timer(stats_, &stats_.maint_retention_calls,
                               &stats_.maint_retention_ns);
  return config_.reference_scan_maintenance ? retention_scan_reference(now)
                                            : retention_scan_indexed(now);
}

SimTime SubpagePool::retention_scan_reference(SimTime now) {
  SimTime t = now;
  for (std::uint32_t chip = 0; chip < geo_.total_chips(); ++chip) {
    for (const std::uint32_t b : core_.owned(chip)) {
      const std::size_t idx = core_.index(chip, b);
      const BlockPoolCore::Block& m = core_.block(idx);
      if (m.valid_count == 0) continue;
      retention_pages_.clear();
      for (std::uint32_t page = 0; page < geo_.pages_per_block; ++page) {
        if (!core_.valid(idx, page)) continue;
        if (now - core_.written_at(idx, page) <= config_.retention_evict_age)
          continue;
        retention_pages_.push_back(page);
      }
      if (!retention_pages_.empty())
        t = retention_evict_pages(idx, retention_pages_, t);
    }
  }
  return t;
}

SimTime SubpagePool::retention_scan_indexed(SimTime now) {
  retention_expired_.clear();
  // Exact same age comparison as the reference walk -- the conservative
  // bucket cutoff only bounds which buckets are examined.
  retention_queue_.collect_expired(
      now - config_.retention_evict_age,
      [&](SimTime written_at) {
        return now - written_at > config_.retention_evict_age;
      },
      retention_expired_);
  // Drop stale entries: the decision depends only on (owned, valid,
  // written_at), so an entry matching all three is exactly a page the
  // reference walk would evict now.
  std::size_t kept = 0;
  for (const auto& e : retention_expired_) {
    const BlockPoolCore::Block& m = core_.block(e.block_idx);
    if (m.owned && core_.valid(e.block_idx, e.page) &&
        core_.written_at(e.block_idx, e.page) == e.written_at)
      retention_expired_[kept++] = e;
  }
  retention_expired_.resize(kept);
  // (block, page) ascending == the reference walk's chip-asc/block-asc/
  // page-asc eviction order; grouping per block reproduces its per-block
  // eviction batches.
  std::sort(retention_expired_.begin(), retention_expired_.end(),
            [](const RetentionQueue::Entry& a, const RetentionQueue::Entry& b) {
              return a.block_idx != b.block_idx ? a.block_idx < b.block_idx
                                                : a.page < b.page;
            });
  SimTime t = now;
  for (std::size_t i = 0; i < retention_expired_.size();) {
    const std::size_t idx = retention_expired_[i].block_idx;
    retention_pages_.clear();
    for (; i < retention_expired_.size() &&
           retention_expired_[i].block_idx == idx;
         ++i)
      retention_pages_.push_back(retention_expired_[i].page);
    t = retention_evict_pages(idx, retention_pages_, t);
  }
  return t;
}

void SubpagePool::save_state(util::StateWriter& w) const {
  w.tag("SPOL");
  core_.save_state(w);
  retention_queue_.save_state(w);
  w.pod_vec(idle_candidates_);
  w.bool_vec(hot_);
  w.pod_vec(map_);
}

void SubpagePool::load_state(util::StateReader& r) {
  r.tag("SPOL");
  core_.load_state(r);
  retention_queue_.load_state(r);
  r.pod_vec(idle_candidates_);
  const std::size_t sectors = map_.size();
  r.bool_vec(hot_);
  r.pod_fixed(std::span(map_));
  if (hot_.size() != sectors)
    throw std::runtime_error("SubpagePool::load_state: hot bits mismatch");
  const std::uint32_t subs = geo_.subpages_per_page;
  core_.check_map(map_, [&](std::uint64_t sub_lin) {
    return std::pair{sub_lin / subs / geo_.pages_per_block,
                     sub_lin / subs % geo_.pages_per_block};
  });
  // A page's live data sits in its latest programmed slot.
  for (std::uint64_t sector = 0; sector < sectors; ++sector) {
    if (map_[sector] == nand::kUnmapped) {
      if (hot_[sector])
        throw std::runtime_error(
            "SubpagePool::load_state: hot bit on unmapped sector " +
            std::to_string(sector));
      continue;
    }
    const nand::SubpageAddr a = codec_.decode_subpage(map_[sector]);
    if (dev_.block(a.page.chip, a.page.block).slots_programmed(a.page.page) !=
        a.slot + 1)
      throw std::runtime_error("SubpagePool::load_state: sector " +
                               std::to_string(sector) +
                               " maps a superseded subpage");
  }
  in_gc_ = false;
  gc_dest_allocs_ = 0;
}

}  // namespace esp::ftl
