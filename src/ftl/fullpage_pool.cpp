#include "ftl/fullpage_pool.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "util/logger.h"

namespace esp::ftl {

FullPagePool::FullPagePool(nand::NandDevice& dev, BlockAllocator& allocator,
                           const Config& config, FtlStats& stats,
                           std::uint64_t lpns)
    : dev_(dev),
      stats_(stats),
      geo_(dev.geometry()),
      codec_(geo_),
      core_(dev, allocator, config, stats, telemetry::HealthPool::kFull,
            geo_.pages_per_block),
      use_copyback_(config.use_copyback),
      gc_tokens_(geo_.subpages_per_page) {
  l2p_.assign(lpns, nand::kUnmapped);
}

SimTime FullPagePool::write_page(std::uint64_t lpn,
                                 std::span<const std::uint64_t> tokens,
                                 SimTime now) {
  // Drop the stale copy before programming: GC may run inside program(),
  // and a still-valid old page would be pointlessly copied.
  drop(lpn);
  return program(lpn, tokens, now);
}

SimTime FullPagePool::program(std::uint64_t lpn,
                              std::span<const std::uint64_t> tokens,
                              SimTime now) {
  if (!in_gc_) now = maybe_gc(now);
  const auto chip = core_.ensure_active(now);
  if (!chip)
    throw std::runtime_error(
        "FullPagePool: out of physical blocks (over-provisioning exhausted)");
  const std::uint32_t blk = *core_.active(*chip);
  const std::size_t idx = core_.index(*chip, blk);
  const std::uint32_t page = core_.block(idx).cursor++;

  const nand::PageAddr addr{*chip, blk, page};
  const auto ack = dev_.program_full(addr, tokens, now);
  ++stats_.flash_prog_full;

  core_.fill_slot(idx, page, lpn);
  l2p_[lpn] = codec_.encode_page(addr);
  return ack.done;
}

void FullPagePool::drop(std::uint64_t lpn) {
  if (l2p_[lpn] == nand::kUnmapped) return;
  const nand::PageAddr addr = codec_.decode_page(l2p_[lpn]);
  const std::size_t idx = core_.index(addr.chip, addr.block);
  if (BlockPoolCore::sealed(core_.invalidate(idx, addr.page)))
    core_.push_victim(idx);
  l2p_[lpn] = nand::kUnmapped;
}

SimTime FullPagePool::read_tokens(const nand::PageAddr& addr,
                                  std::span<std::uint64_t> tokens,
                                  SimTime now) {
  const auto read = dev_.read_page(addr, now);
  ++stats_.flash_reads;
  for (std::uint32_t s = 0; s < geo_.subpages_per_page; ++s) {
    tokens[s] = read.token[s];
    if (read.status[s] == nand::ReadStatus::kCorrupted ||
        read.status[s] == nand::ReadStatus::kUncorrectable)
      ++stats_.read_failures;
  }
  return read.done;
}

SimTime FullPagePool::read_for_rmw(std::uint64_t lpn,
                                   std::span<std::uint64_t> tokens,
                                   SimTime now) {
  ++stats_.rmw_ops;
  return read_tokens(codec_.decode_page(l2p_[lpn]), tokens, now);
}

SimTime FullPagePool::merge_page(std::uint64_t lpn,
                                 std::span<const SectorWrite> sectors,
                                 SimTime now) {
  const std::uint32_t subs = geo_.subpages_per_page;
  std::array<std::uint64_t, nand::kMaxSubpagesPerPage> page_tokens{};
  const std::span<std::uint64_t> tokens(page_tokens.data(), subs);
  SimTime t = now;
  const bool merges_old_page = l2p_[lpn] != nand::kUnmapped;
  if (merges_old_page) t = read_for_rmw(lpn, tokens, t);
  for (const SectorWrite& sw : sectors) tokens[sw.sector % subs] = sw.token;
  const SimTime done = write_page(lpn, tokens, t);
  if (telemetry::Telemetry* tel = core_.tel(); tel && merges_old_page)
    tel->record_op({telemetry::OpKind::kRmw, now, done,
                    static_cast<std::uint64_t>(sectors.size())});
  return done;
}

SimTime FullPagePool::merge_sectors(std::span<const SectorWrite> batch,
                                    SimTime now) {
  std::vector<SectorWrite>& sorted = merge_sorted_;
  sorted.assign(batch.begin(), batch.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const SectorWrite& a, const SectorWrite& b) {
              return a.sector < b.sector;
            });
  const std::uint32_t subs = geo_.subpages_per_page;
  SimTime done = now;
  std::size_t i = 0;
  while (i < sorted.size()) {
    const std::uint64_t lpn = sorted[i].sector / subs;
    std::size_t j = i;
    while (j < sorted.size() && sorted[j].sector / subs == lpn) ++j;
    const std::span<const SectorWrite> page(&sorted[i], j - i);
    done = std::max(done, merge_page(lpn, page, now));
    stats_.small_extra_flash_bytes += geo_.page_bytes;
    i = j;
  }
  return done;
}

SimTime FullPagePool::maybe_gc(SimTime now) {
  return core_.collect_under_pressure(
      now, [this](std::size_t idx, SimTime t) {
        return collect_block(idx, t, /*for_wear_leveling=*/false);
      });
}

SimTime FullPagePool::static_wear_level(SimTime now,
                                        std::uint32_t pe_threshold) {
  return core_.static_wear_level(
      now, pe_threshold, [this](std::size_t idx, SimTime t) {
        return collect_block(idx, t, /*for_wear_leveling=*/true);
      });
}

SimTime FullPagePool::collect_block(std::size_t idx, SimTime now,
                                    bool for_wear_leveling) {
  const MaintenanceTimer timer(stats_, nullptr, &stats_.maint_gc_ns);
  const std::uint32_t chip = core_.chip_of(idx);
  const std::uint32_t blk = core_.block_of(idx);
  const SimTime collect_start = now;
  std::uint64_t moved_sectors = 0;
  in_gc_ = true;
  telemetry::Telemetry* tel = core_.tel();
  // Copies and the final erase all attribute to this GC/WL episode.
  const telemetry::CauseScope cause(
      tel,
      for_wear_leveling ? telemetry::Cause::kWearLevel
                        : telemetry::Cause::kGcCopy,
      idx, now);
  std::uint64_t& moved_stat = for_wear_leveling ? stats_.wear_level_relocations
                                                : stats_.gc_copy_sectors;
  for (std::uint32_t page = 0; page < geo_.pages_per_block; ++page) {
    const std::uint64_t lpn = core_.owner(idx, page);
    if (lpn == nand::kUnmapped) continue;
    const nand::PageAddr src{chip, blk, page};
    moved_stat += geo_.subpages_per_page;
    moved_sectors += geo_.subpages_per_page;

    if (use_copyback_ && core_.ensure_active_on(chip, now) &&
        core_.active(chip) != blk) {
      // On-chip copy: no channel transfers in either direction.
      const std::uint32_t dst_blk = *core_.active(chip);
      const std::size_t dst = core_.index(chip, dst_blk);
      const std::uint32_t dst_page = core_.block(dst).cursor++;
      const nand::PageAddr dst_addr{chip, dst_blk, dst_page};
      const auto ack = dev_.copyback(src, dst_addr, now);
      ++stats_.flash_reads;
      ++stats_.flash_prog_full;
      core_.clear_slot(idx, page);
      core_.fill_slot(dst, dst_page, lpn);
      l2p_[lpn] = codec_.encode_page(dst_addr);
      now = ack.done;
      continue;
    }

    const SimTime read_done = read_tokens(src, gc_tokens_, now);
    // Invalidate before rewriting so the copy's accounting stays balanced.
    core_.clear_slot(idx, page);
    now = program(lpn, gc_tokens_, read_done);
  }
  in_gc_ = false;

  const SimTime done = core_.erase(idx, now);
  if (tel) {
    const auto copy_kind = for_wear_leveling ? telemetry::OpKind::kWearLevel
                                             : telemetry::OpKind::kGcCopy;
    tel->record_op({copy_kind, collect_start, done, moved_sectors});
  }
  ESP_LOG_DEBUG("%s collected full-page block chip=%u blk=%u moved=%llu",
                for_wear_leveling ? "wear-level" : "gc",
                static_cast<unsigned>(chip), static_cast<unsigned>(blk),
                static_cast<unsigned long long>(moved_sectors));
  core_.release(idx, done);
  return done;
}

void FullPagePool::save_state(util::StateWriter& w) const {
  w.tag("POOL");
  core_.save_state(w);
  w.pod_vec(l2p_);
}

void FullPagePool::load_state(util::StateReader& r) {
  r.tag("POOL");
  core_.load_state(r);
  r.pod_fixed(std::span(l2p_));
  core_.check_map(l2p_, [&](std::uint64_t page_lin) {
    return std::pair{page_lin / geo_.pages_per_block,
                     page_lin % geo_.pages_per_block};
  });
  in_gc_ = false;
}

}  // namespace esp::ftl
