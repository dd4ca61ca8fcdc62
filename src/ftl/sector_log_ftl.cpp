#include "ftl/sector_log_ftl.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "telemetry/metrics.h"

namespace esp::ftl {
namespace {

std::uint64_t log_quota(const nand::Geometry& geo, double fraction) {
  const auto quota = static_cast<std::uint64_t>(
      std::llround(fraction * static_cast<double>(geo.total_blocks())));
  return std::max<std::uint64_t>(quota, geo.total_chips());
}

}  // namespace

SectorLogFtl::SectorLogFtl(nand::NandDevice& dev, const Config& config)
    : dev_(dev),
      config_(config),
      geo_(dev.geometry()),
      codec_(geo_),
      allocator_(geo_),
      pool_data_(dev, allocator_,
                 FullPagePool::Config{{/*quota_blocks=*/~0ull,
                                       config.gc_reserve_blocks,
                                       config.reference_scan_maintenance},
                                      config.use_copyback},
                 stats_,
                 [this](std::uint64_t lpn, std::uint64_t new_lin) {
                   l2p_[lpn] = new_lin;
                 }),
      pool_log_(dev, allocator_,
                FinePool::Config{log_quota(geo_, config.log_region_fraction),
                                 config.gc_reserve_blocks,
                                 config.reference_scan_maintenance},
                stats_,
                [this](std::uint64_t sector, std::uint64_t new_lin) {
                  log_map_[sector] = new_lin;
                },
                [this](std::span<const SectorWrite> batch, SimTime now) {
                  return merge_batch(batch, now);
                }),
      buffer_(config.buffer_sectors, geo_.subpages_per_page) {
  if (config_.logical_sectors == 0)
    throw std::invalid_argument("SectorLogFtl: logical_sectors must be > 0");
  if (config_.log_region_fraction <= 0.0 ||
      config_.log_region_fraction >= 1.0)
    throw std::invalid_argument(
        "SectorLogFtl: log_region_fraction must be in (0, 1)");
  const std::uint32_t subs = geo_.subpages_per_page;
  const std::uint64_t lpns = (config_.logical_sectors + subs - 1) / subs;
  const std::uint64_t log_pages =
      log_quota(geo_, config.log_region_fraction) * geo_.pages_per_block;
  if (lpns + log_pages > geo_.total_pages())
    throw std::invalid_argument(
        "SectorLogFtl: logical space plus log quota exceeds capacity");
  l2p_.assign(lpns, nand::kUnmapped);
  version_.assign(config_.logical_sectors, 0);
}

void SectorLogFtl::check_range(std::uint64_t sector,
                               std::uint32_t count) const {
  if (count == 0 || sector + count > config_.logical_sectors)
    throw std::out_of_range(
        "SectorLogFtl: sector range outside logical space");
}

void SectorLogFtl::drop_log_copy(std::uint64_t sector) {
  const auto it = log_map_.find(sector);
  if (it == log_map_.end()) return;
  pool_log_.invalidate(it->second);
  log_map_.erase(it);
}

SimTime SectorLogFtl::write_full_lpn(std::uint64_t lpn,
                                     const BufferedSector* group,
                                     SimTime now) {
  const std::uint32_t subs = geo_.subpages_per_page;
  std::array<std::uint64_t, nand::kMaxSubpagesPerPage> tokens{};
  std::uint64_t small_sectors = 0;
  for (std::uint32_t s = 0; s < subs; ++s) {
    drop_log_copy(group[s].sector);
    tokens[s] = group[s].token;
    if (group[s].small) ++small_sectors;
  }
  if (l2p_[lpn] != nand::kUnmapped) {
    pool_data_.invalidate(l2p_[lpn]);
    l2p_[lpn] = nand::kUnmapped;
  }
  const auto [new_lin, done] = pool_data_.write_page(
      lpn, std::span<const std::uint64_t>(tokens.data(), subs), now);
  l2p_[lpn] = new_lin;
  stats_.small_service_flash_bytes += small_sectors * geo_.subpage_bytes();
  return done;
}

SimTime SectorLogFtl::append_to_log(std::span<const BufferedSector> group,
                                    SimTime now) {
  // One full-page program carrying this (<= Nsub) group -- logical-level
  // subpage granularity, physical-level full-page cost.
  std::array<SectorWrite, nand::kMaxSubpagesPerPage> writes{};
  std::uint64_t small_in_group = 0;
  for (std::size_t k = 0; k < group.size(); ++k) {
    drop_log_copy(group[k].sector);
    writes[k] = SectorWrite{group[k].sector, group[k].token};
    if (group[k].small) ++small_in_group;
  }
  const SimTime done = pool_log_.write_group(
      std::span<const SectorWrite>(writes.data(), group.size()), now);
  // Multiply before dividing (as FgmFtl::flush_run does): page_bytes /
  // group.size() truncates for 3-sector groups and would leak bytes of
  // attributed cost.
  stats_.small_service_flash_bytes +=
      small_in_group * geo_.page_bytes / group.size();
  return done;
}

SimTime SectorLogFtl::merge_batch(std::span<const SectorWrite> batch,
                                  SimTime now) {
  // Log cleaning (the sector-log "merge"): fold live log sectors into
  // their logical pages in the data region, one RMW per page.
  for (const SectorWrite& sw : batch) log_map_.erase(sw.sector);
  return pool_data_.merge_sectors(batch, l2p_, now);
}

SimTime SectorLogFtl::flush_run(std::span<const BufferedSector> run,
                                SimTime now) {
  // Placement mirrors subFTL: complete logical pages to the data region,
  // the rest appended to the log.
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
      done = std::max(done, append_to_log(run.subspan(i, j - i), now));
    }
    i = j;
  }
  return done;
}

IoResult SectorLogFtl::write(std::uint64_t sector, std::uint32_t count,
                             bool sync, SimTime now) {
  check_range(sector, count);
  if (config_.wl_check_interval > 0 &&
      ++writes_since_wl_ >= config_.wl_check_interval) {
    writes_since_wl_ = 0;
    wl_toggle_ = !wl_toggle_;
    now = wl_toggle_
              ? pool_data_.static_wear_level(now, config_.wl_pe_threshold)
              : pool_log_.static_wear_level(now, config_.wl_pe_threshold);
  }
  ++stats_.host_write_requests;
  stats_.host_write_sectors += count;
  const bool small = count < geo_.subpages_per_page;
  if (small) {
    ++stats_.small_write_requests;
    stats_.small_write_bytes +=
        static_cast<std::uint64_t>(count) * geo_.subpage_bytes();
  }

  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t s = sector + i;
    if (buffer_.insert(s, make_token(s, ++version_[s]), small))
      ++stats_.buffer_hits;
  }

  SimTime done = now + config_.buffer_insert_us;
  if (sync) {
    buffer_.extract_page_group(sector, run_);
    done = std::max(done, flush_run(run_, now));
  }
  while (buffer_.over_capacity()) {
    buffer_.extract_oldest_page_group(run_);
    if (run_.empty()) break;
    done = std::max(done, flush_run(run_, now));
  }
  return IoResult{done, true};
}

IoResult SectorLogFtl::read(std::uint64_t sector, std::uint32_t count,
                            SimTime now, std::vector<std::uint64_t>* tokens) {
  check_range(sector, count);
  ++stats_.host_read_requests;
  stats_.host_read_sectors += count;
  if (tokens) tokens->assign(count, 0);

  SimTime done = now;
  bool ok = true;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t s = sector + i;
    std::uint64_t token = 0;
    if (buffer_.lookup(s, &token)) {
      ++stats_.buffer_hits;
    } else if (const auto it = log_map_.find(s); it != log_map_.end()) {
      const auto ack = dev_.read_subpage(codec_.decode_subpage(it->second),
                                         now);
      ++stats_.flash_reads;
      token = ack.token;
      if (ack.status != nand::ReadStatus::kOk) {
        ok = false;
        ++stats_.read_failures;
      }
      done = std::max(done, ack.done);
    } else {
      const std::uint64_t lpn = s / geo_.subpages_per_page;
      if (l2p_[lpn] != nand::kUnmapped) {
        const auto read = dev_.read_page(codec_.decode_page(l2p_[lpn]), now);
        ++stats_.flash_reads;
        const auto slot =
            static_cast<std::uint32_t>(s % geo_.subpages_per_page);
        token = read.token[slot];
        if (read.status[slot] == nand::ReadStatus::kCorrupted ||
            read.status[slot] == nand::ReadStatus::kUncorrectable) {
          ok = false;
          ++stats_.read_failures;
        }
        done = std::max(done, read.done);
      }
    }
    if (tokens) (*tokens)[i] = token;
  }
  return IoResult{done, ok};
}

IoResult SectorLogFtl::flush(SimTime now) {
  // Explicit host flush: programs issued by the drain (and any GC they
  // trigger) attribute to the flush, not to the host write path.
  const telemetry::CauseScope cause(sink_, telemetry::Cause::kFlush,
                                    buffer_.size(), now);
  SimTime done = now;
  while (!buffer_.empty()) {
    buffer_.extract_oldest_page_group(run_);
    if (run_.empty()) break;
    done = std::max(done, flush_run(run_, now));
  }
  return IoResult{done, true};
}

void SectorLogFtl::trim(std::uint64_t sector, std::uint32_t count) {
  check_range(sector, count);
  // Page-aligned contract (see Ftl::trim): partial edges keep their latest
  // data, including buffered copies that may be the newest version's only
  // home; only whole pages drop buffer + log + data-region state.
  const std::uint32_t subs = geo_.subpages_per_page;
  const std::uint64_t first_lpn = (sector + subs - 1) / subs;
  const std::uint64_t end_lpn = (sector + count) / subs;
  for (std::uint64_t lpn = first_lpn; lpn < end_lpn; ++lpn) {
    for (std::uint32_t s = 0; s < subs; ++s) {
      buffer_.erase(lpn * subs + s);
      drop_log_copy(lpn * subs + s);
    }
    if (l2p_[lpn] != nand::kUnmapped) {
      pool_data_.invalidate(l2p_[lpn]);
      l2p_[lpn] = nand::kUnmapped;
    }
  }
}

std::uint64_t SectorLogFtl::mapping_memory_bytes() const {
  // Coarse table plus the fine log map (modeled 16 bytes/entry).
  return l2p_.size() * sizeof(std::uint32_t) + log_map_.size() * 16;
}

void SectorLogFtl::set_telemetry(telemetry::Sink* sink) {
  sink_ = sink;
  pool_data_.set_telemetry(sink);
  pool_log_.set_telemetry(sink);
  if (!sink) return;
  telemetry::MetricsRegistry& reg = sink->registry();
  bind_stats(reg, name(), stats_);
  reg.gauge(name() + "/region_blocks").set_provider([this] {
    return static_cast<double>(pool_log_.blocks_in_use());
  });
  reg.gauge(name() + "/region_valid_sectors").set_provider([this] {
    return static_cast<double>(pool_log_.valid_sectors());
  });
  reg.gauge(name() + "/fullpage_blocks").set_provider([this] {
    return static_cast<double>(pool_data_.blocks_in_use());
  });
  reg.gauge(name() + "/mapping_memory_bytes").set_provider([this] {
    return static_cast<double>(mapping_memory_bytes());
  });
}

void SectorLogFtl::save_state(util::StateWriter& w) const {
  w.tag("SLOG");
  save_stats(w, stats_);
  allocator_.save_state(w);
  pool_data_.save_state(w);
  pool_log_.save_state(w);
  buffer_.save_state(w);
  w.pod_vec(l2p_);
  // The log map is only ever probed by key; sorted order makes the archive
  // canonical (see WriteBuffer::save_state).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(
      log_map_.begin(), log_map_.end());
  std::sort(sorted.begin(), sorted.end());
  w.pair_vec(sorted);
  w.pod_vec(version_);
  w.u32(writes_since_wl_);
  w.b(wl_toggle_);
}

void SectorLogFtl::load_state(util::StateReader& r) {
  r.tag("SLOG");
  load_stats(r, stats_);
  allocator_.load_state(r);
  pool_data_.load_state(r);
  pool_log_.load_state(r);
  buffer_.load_state(r);
  r.pod_vec(l2p_);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted;
  r.pair_vec(sorted);
  log_map_.clear();
  log_map_.reserve(sorted.size());
  for (const auto& [sector, sub] : sorted) log_map_.emplace(sector, sub);
  r.pod_vec(version_);
  writes_since_wl_ = r.u32();
  wl_toggle_ = r.b();
}

}  // namespace esp::ftl
