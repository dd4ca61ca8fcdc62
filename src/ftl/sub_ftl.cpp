#include "ftl/sub_ftl.h"

#include <algorithm>
#include <array>

namespace esp::ftl {

SubFtl::SubFtl(nand::NandDevice& dev, const Config& config)
    : BufferedFtl(dev, config, "subFTL", "SUBF", MergeUnit::kPageGroup),
      retention_scan_interval_(config.retention_scan_interval),
      // No static quota on the full-page region: block types are decided
      // at program time (paper Sec. 4.2), so blocks the subpage region is
      // not actually using remain available here. Space pressure is
      // governed by the shared allocator's reserve floor.
      pool_full_(dev, allocator_, fullpage_config(), stats_, logical_pages()),
      pool_sub_(dev, allocator_,
                SubpagePool::Config{
                    pool_config(region_quota_blocks(
                        geo_, config.subpage_region_fraction)),
                    config.retention_evict_age, config.gc_free_target,
                    config.advance_max_valid_fraction},
                stats_, config.logical_sectors, pool_full_) {
  check_region(config.subpage_region_fraction);
}

SimTime SubFtl::before_write(SimTime now) {
  // Block-type conversion back to the shared pool: when free blocks run
  // low, garbage-only subpage-region blocks are returned so they can serve
  // the full-page region (their type is re-decided at next program).
  if (allocator_.total_free() <=
      config_.gc_reserve_blocks + geo_.total_chips())
    now = pool_sub_.release_idle_blocks(now);
  return now;
}

SimTime SubFtl::wear_level(SimTime now, bool turn) {
  return turn ? pool_full_.static_wear_level(now, config_.wl_pe_threshold)
              : pool_sub_.static_wear_level(now, config_.wl_pe_threshold);
}

SimTime SubFtl::write_full_lpn(std::uint64_t lpn, const BufferedSector* group,
                               SimTime now) {
  const std::uint32_t subs = geo_.subpages_per_page;
  std::array<std::uint64_t, nand::kMaxSubpagesPerPage> tokens{};
  std::uint64_t small_sectors = 0;
  for (std::uint32_t s = 0; s < subs; ++s) {
    // The fresh full page supersedes any subpage-region copy.
    pool_sub_.drop(group[s].sector);
    tokens[s] = group[s].token;
    if (group[s].small) ++small_sectors;
  }
  const SimTime done = pool_full_.write_page(
      lpn, std::span<const std::uint64_t>(tokens.data(), subs), now);
  // Small writes that merged into a full page pay exactly their own bytes.
  stats_.small_service_flash_bytes += small_sectors * geo_.subpage_bytes();
  return done;
}

SimTime SubFtl::write_small_sector(const BufferedSector& bs, SimTime now) {
  if (const auto done = pool_sub_.try_write_sector(bs.sector, bs.token, now)) {
    if (bs.small) stats_.small_service_flash_bytes += geo_.subpage_bytes();
    return *done;
  }
  // Overflow valve: the region cannot take another subpage right now
  // (extreme space pressure). Service the write the CGM way instead of
  // failing -- correctness first, the request WAF of this write is 4. The
  // whole read + merge + full-page program attributes to RMW.
  const std::uint64_t lpn = bs.sector / geo_.subpages_per_page;
  const telemetry::CauseScope cause(tel_, telemetry::Cause::kRmw, lpn, now);
  const SectorWrite sw{bs.sector, bs.token};
  const SimTime done = pool_full_.merge_page(lpn, {&sw, 1}, now);
  if (bs.small) stats_.small_service_flash_bytes += geo_.page_bytes;
  return done;
}

SimTime SubFtl::flush_run(std::span<const BufferedSector> run,
                          SimTime now) {
  // Data placement (Sec. 4.1): a COMPLETE logical page inside the flush
  // group goes to the full-page region; incomplete pages are small writes
  // for the subpage region. (`run` is sorted; split at page boundaries.)
  const std::uint32_t subs = geo_.subpages_per_page;
  SimTime done = now;
  std::size_t i = 0;
  while (i < run.size()) {
    const std::uint64_t lpn = run[i].sector / subs;
    std::size_t j = i;
    while (j < run.size() && run[j].sector / subs == lpn) ++j;
    if (j - i == subs) {
      done = std::max(done, write_full_lpn(lpn, &run[i], now));
    } else {
      for (std::size_t k = i; k < j; ++k)
        done = std::max(done, write_small_sector(run[k], now));
    }
    i = j;
  }
  return done;
}

IoResult SubFtl::read(std::uint64_t sector, std::uint32_t count, SimTime now,
                      std::vector<std::uint64_t>* tokens) {
  begin_read(sector, count, tokens);
  SimTime done = now;
  bool ok = true;
  // Resolve per sector: write buffer -> subpage hash -> coarse L2P. Full
  // pages are read at most once per logical page per request.
  const auto resolve = [&](std::uint64_t s, std::uint64_t* token) {
    if (buffered(s, token)) return true;
    if (pool_sub_.subpage_of(s) == nand::kUnmapped) return false;
    *token = read_subpage(pool_sub_.subpage_of(s), now, done, ok);
    return true;
  };
  const std::uint32_t subs = geo_.subpages_per_page;
  std::uint32_t i = 0;
  while (i < count) {
    std::uint64_t token = 0;
    if (resolve(sector + i, &token)) {
      if (tokens) (*tokens)[i] = token;
      ++i;
      continue;
    }
    const std::uint64_t lpn = (sector + i) / subs;
    if (pool_full_.page_of(lpn) == nand::kUnmapped) {
      ++i;  // never written: token stays 0
      continue;
    }
    // Fall back to the full-page region: serve every remaining sector of
    // this logical page (that is not shadowed) from one page read.
    const auto read =
        dev_.read_page(codec_.decode_page(pool_full_.page_of(lpn)), now);
    ++stats_.flash_reads;
    done = std::max(done, read.done);
    for (; i < count && (sector + i) / subs == lpn; ++i) {
      const std::uint64_t cur = sector + i;
      if (!resolve(cur, &token))
        token = slot_token(read, static_cast<std::uint32_t>(cur % subs), ok);
      if (tokens) (*tokens)[i] = token;
    }
  }
  return IoResult{done, ok};
}

void SubFtl::trim_page(std::uint64_t lpn) {
  const std::uint32_t subs = geo_.subpages_per_page;
  for (std::uint64_t s = lpn * subs; s < (lpn + 1) * subs; ++s) {
    buffer_.erase(s);
    pool_sub_.drop(s);
  }
  pool_full_.drop(lpn);
}

SimTime SubFtl::tick(SimTime now) {
  if (now - last_retention_scan_ < retention_scan_interval_) return now;
  last_retention_scan_ = now;
  return pool_sub_.retention_scan(now);
}

std::uint64_t SubFtl::mapping_memory_bytes() const {
  // Coarse table: 32-bit PPA per logical page. Hash table: modeled 16 bytes
  // per entry (sector key + sub-PPA + flags); bounded by one valid subpage
  // per physical page of the subpage region.
  return pool_full_.lpns() * sizeof(std::uint32_t) +
         pool_sub_.valid_sectors() * 16;
}

void SubFtl::attach(telemetry::Telemetry* tel) {
  pool_full_.set_telemetry(tel);
  pool_sub_.set_telemetry(tel);
  if (!tel) return;
  gauge(*tel, "region_blocks", [this] { return pool_sub_.blocks_in_use(); });
  gauge(*tel, "region_valid_sectors",
        [this] { return pool_sub_.valid_sectors(); });
  gauge(*tel, "fullpage_blocks",
        [this] { return pool_full_.blocks_in_use(); });
}

void SubFtl::save_body(util::StateWriter& w) const {
  pool_full_.save_state(w);
  pool_sub_.save_state(w);
  buffer_.save_state(w);
  w.f64(last_retention_scan_);
}

void SubFtl::load_body(util::StateReader& r) {
  pool_full_.load_state(r);
  pool_sub_.load_state(r);
  buffer_.load_state(r);
  last_retention_scan_ = r.f64();
}

}  // namespace esp::ftl
