#include "ftl/sub_ftl.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "telemetry/metrics.h"
#include "util/logger.h"

namespace esp::ftl {
namespace {

std::uint64_t subpage_quota(const nand::Geometry& geo, double fraction) {
  const auto quota = static_cast<std::uint64_t>(
      std::llround(fraction * static_cast<double>(geo.total_blocks())));
  return std::max<std::uint64_t>(quota, geo.total_chips());
}

SubpagePool::Config subpage_config(const nand::Geometry& geo,
                                   const SubFtl::Config& config) {
  SubpagePool::Config c;
  c.quota_blocks = subpage_quota(geo, config.subpage_region_fraction);
  c.reserve_free_blocks = config.gc_reserve_blocks;
  c.reference_scan_maintenance = config.reference_scan_maintenance;
  c.retention_evict_age = config.retention_evict_age;
  c.gc_free_target = config.gc_free_target;
  c.advance_max_valid_fraction = config.advance_max_valid_fraction;
  return c;
}

}  // namespace

SubFtl::SubFtl(nand::NandDevice& dev, const Config& config)
    : dev_(dev),
      config_(config),
      geo_(dev.geometry()),
      codec_(geo_),
      allocator_(geo_),
      // No static quota on the full-page region: block types are decided
      // at program time (paper Sec. 4.2), so blocks the subpage region is
      // not actually using remain available here. Space pressure is
      // governed by the shared allocator's reserve floor.
      pool_full_(dev, allocator_,
                 FullPagePool::Config{{/*quota_blocks=*/~0ull,
                                       config.gc_reserve_blocks,
                                       config.reference_scan_maintenance},
                                      config.use_copyback},
                 stats_,
                 [this](std::uint64_t lpn, std::uint64_t new_lin) {
                   l2p_[lpn] = new_lin;
                 }),
      pool_sub_(dev, allocator_, subpage_config(geo_, config), stats_,
                [this](std::uint64_t sector, std::uint64_t new_lin) {
                  if (sub_lin_[sector] == nand::kUnmapped) ++sub_entries_;
                  sub_lin_[sector] = new_lin;
                },
                [this](std::span<const SectorWrite> batch, SimTime now,
                       bool retention) {
                  return evict_batch(batch, now, retention);
                },
                [this](std::uint64_t sector) -> bool {
                  return sub_hot_[sector];
                },
                [this](std::uint64_t sector) { sub_hot_[sector] = false; }),
      buffer_(config.buffer_sectors, geo_.subpages_per_page) {
  if (config_.logical_sectors == 0)
    throw std::invalid_argument("SubFtl: logical_sectors must be > 0");
  if (config_.subpage_region_fraction <= 0.0 ||
      config_.subpage_region_fraction >= 1.0)
    throw std::invalid_argument(
        "SubFtl: subpage_region_fraction must be in (0, 1)");
  const std::uint32_t subs = geo_.subpages_per_page;
  const std::uint64_t lpns = (config_.logical_sectors + subs - 1) / subs;
  // Hard feasibility, worst case: every logical page valid and cold in the
  // full-page region while the subpage region sits at its quota. Configs
  // near this bound still work -- the region stops expanding under space
  // pressure and GC falls back gracefully -- but beyond it the data
  // literally cannot fit.
  const std::uint64_t region_pages =
      pool_sub_.config().quota_blocks * geo_.pages_per_block;
  if (lpns + region_pages > geo_.total_pages())
    throw std::invalid_argument(
        "SubFtl: logical space plus subpage-region quota exceeds physical "
        "capacity; reduce logical_sectors or subpage_region_fraction");
  l2p_.assign(lpns, nand::kUnmapped);
  sub_lin_.assign(config_.logical_sectors, nand::kUnmapped);
  sub_hot_.assign(config_.logical_sectors, false);
  version_.assign(config_.logical_sectors, 0);
}

void SubFtl::check_range(std::uint64_t sector, std::uint32_t count) const {
  if (count == 0 || sector + count > config_.logical_sectors)
    throw std::out_of_range("SubFtl: sector range outside logical space");
}

void SubFtl::drop_subpage_copy(std::uint64_t sector) {
  if (sub_lin_[sector] == nand::kUnmapped) return;
  pool_sub_.invalidate(sub_lin_[sector]);
  sub_lin_[sector] = nand::kUnmapped;
  sub_hot_[sector] = false;
  --sub_entries_;
}

SimTime SubFtl::write_full_lpn(std::uint64_t lpn, const BufferedSector* group,
                               SimTime now) {
  const std::uint32_t subs = geo_.subpages_per_page;
  std::array<std::uint64_t, nand::kMaxSubpagesPerPage> tokens{};
  std::uint64_t small_sectors = 0;
  for (std::uint32_t s = 0; s < subs; ++s) {
    // The fresh full page supersedes any subpage-region copy.
    drop_subpage_copy(group[s].sector);
    tokens[s] = group[s].token;
    if (group[s].small) ++small_sectors;
  }
  if (l2p_[lpn] != nand::kUnmapped) {
    pool_full_.invalidate(l2p_[lpn]);
    l2p_[lpn] = nand::kUnmapped;
  }
  const auto [new_lin, done] = pool_full_.write_page(
      lpn, std::span<const std::uint64_t>(tokens.data(), subs), now);
  l2p_[lpn] = new_lin;
  // Small writes that merged into a full page pay exactly their own bytes.
  stats_.small_service_flash_bytes += small_sectors * geo_.subpage_bytes();
  return done;
}

SimTime SubFtl::write_small_sector(const BufferedSector& bs, SimTime now) {
  if (sub_lin_[bs.sector] != nand::kUnmapped) {
    // Re-update of a region-resident sector: the old subpage goes stale and
    // the sector is proven hot. The entry leaves the map until the pool
    // re-places it (or the overflow fallback below demotes it).
    pool_sub_.invalidate(sub_lin_[bs.sector]);
    sub_lin_[bs.sector] = nand::kUnmapped;
    --sub_entries_;
    sub_hot_[bs.sector] = true;
  }
  if (const auto placed = pool_sub_.try_write_sector(bs.sector, bs.token,
                                                     now)) {
    if (bs.small) stats_.small_service_flash_bytes += geo_.subpage_bytes();
    return placed->second;
  }
  // Overflow valve: the region cannot take another subpage right now
  // (extreme space pressure). Service the write the CGM way instead of
  // failing -- correctness first, the request WAF of this write is 4.
  sub_hot_[bs.sector] = false;
  const SimTime done = rmw_into_fullpage(bs.sector, bs.token, now);
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

SimTime SubFtl::rmw_into_fullpage(std::uint64_t sector, std::uint64_t token,
                                  SimTime now) {
  const std::uint32_t subs = geo_.subpages_per_page;
  const std::uint64_t lpn = sector / subs;
  // The overflow valve services a small write the CGM way; the whole
  // read + merge + full-page program attributes to RMW.
  const telemetry::CauseScope cause(sink_, telemetry::Cause::kRmw, lpn, now);
  std::array<std::uint64_t, nand::kMaxSubpagesPerPage> storage{};
  const std::span<std::uint64_t> tokens(storage.data(), subs);
  SimTime t = now;
  const bool merges_old_page = l2p_[lpn] != nand::kUnmapped;
  if (merges_old_page) {
    t = pool_full_.read_for_rmw(l2p_[lpn], tokens, t);
    pool_full_.invalidate(l2p_[lpn]);
    l2p_[lpn] = nand::kUnmapped;
  }
  tokens[sector % subs] = token;
  const auto [new_lin, done] = pool_full_.write_page(lpn, tokens, t);
  l2p_[lpn] = new_lin;
  if (sink_ && merges_old_page && sink_->wants_op(telemetry::OpKind::kRmw))
    sink_->record_op({telemetry::OpKind::kRmw, now, done, 1});
  return done;
}

SimTime SubFtl::evict_batch(std::span<const SectorWrite> batch, SimTime now,
                            bool /*retention*/) {
  // The pool has already dropped its bookkeeping for these subpages;
  // forget the hash entries, then merge the sectors into their logical
  // pages in the full-page region -- ONE read-modify-write per logical
  // page, however many of its sectors the batch carries (sequential small
  // writes evict together, so this merge matters).
  for (const SectorWrite& sw : batch) {
    if (sub_lin_[sw.sector] != nand::kUnmapped) --sub_entries_;
    sub_lin_[sw.sector] = nand::kUnmapped;
    sub_hot_[sw.sector] = false;
  }
  return pool_full_.merge_sectors(batch, l2p_, now);
}

IoResult SubFtl::write(std::uint64_t sector, std::uint32_t count, bool sync,
                       SimTime now) {
  check_range(sector, count);
  // Block-type conversion back to the shared pool: when free blocks run
  // low, garbage-only subpage-region blocks are returned so they can serve
  // the full-page region (their type is re-decided at next program).
  if (allocator_.total_free() <=
      config_.gc_reserve_blocks + geo_.total_chips())
    now = pool_sub_.release_idle_blocks(now);
  if (config_.wl_check_interval > 0 &&
      ++writes_since_wl_ >= config_.wl_check_interval) {
    writes_since_wl_ = 0;
    wl_toggle_ = !wl_toggle_;
    now = wl_toggle_
              ? pool_full_.static_wear_level(now, config_.wl_pe_threshold)
              : pool_sub_.static_wear_level(now, config_.wl_pe_threshold);
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

IoResult SubFtl::read(std::uint64_t sector, std::uint32_t count, SimTime now,
                      std::vector<std::uint64_t>* tokens) {
  check_range(sector, count);
  ++stats_.host_read_requests;
  stats_.host_read_sectors += count;
  if (tokens) tokens->assign(count, 0);

  SimTime done = now;
  bool ok = true;
  // Resolve per sector: write buffer -> subpage hash -> coarse L2P. Full
  // pages are read at most once per logical page per request.
  std::uint32_t i = 0;
  while (i < count) {
    const std::uint64_t s = sector + i;
    std::uint64_t token = 0;
    if (buffer_.lookup(s, &token)) {
      ++stats_.buffer_hits;
      if (tokens) (*tokens)[i] = token;
      ++i;
      continue;
    }
    if (sub_lin_[s] != nand::kUnmapped) {
      const auto ack =
          dev_.read_subpage(codec_.decode_subpage(sub_lin_[s]), now);
      ++stats_.flash_reads;
      if (ack.status != nand::ReadStatus::kOk) {
        ok = false;
        ++stats_.read_failures;
      }
      if (tokens) (*tokens)[i] = ack.token;
      done = std::max(done, ack.done);
      ++i;
      continue;
    }
    // Fall back to the full-page region: serve every remaining sector of
    // this logical page (that is not shadowed) from one page read.
    const std::uint32_t subs = geo_.subpages_per_page;
    const std::uint64_t lpn = s / subs;
    if (l2p_[lpn] == nand::kUnmapped) {
      ++i;  // never written: token stays 0
      continue;
    }
    const auto read = dev_.read_page(codec_.decode_page(l2p_[lpn]), now);
    ++stats_.flash_reads;
    done = std::max(done, read.done);
    while (i < count) {
      const std::uint64_t cur = sector + i;
      if (cur / subs != lpn) break;
      if (buffer_.lookup(cur, &token)) {
        ++stats_.buffer_hits;
        if (tokens) (*tokens)[i] = token;
      } else if (sub_lin_[cur] != nand::kUnmapped) {
        const auto ack =
            dev_.read_subpage(codec_.decode_subpage(sub_lin_[cur]), now);
        ++stats_.flash_reads;
        if (ack.status != nand::ReadStatus::kOk) {
          ok = false;
          ++stats_.read_failures;
        }
        if (tokens) (*tokens)[i] = ack.token;
        done = std::max(done, ack.done);
      } else {
        const auto slot = static_cast<std::uint32_t>(cur % subs);
        if (read.status[slot] == nand::ReadStatus::kCorrupted ||
            read.status[slot] == nand::ReadStatus::kUncorrectable) {
          ok = false;
          ++stats_.read_failures;
        }
        if (tokens) (*tokens)[i] = read.token[slot];
      }
      ++i;
    }
  }
  return IoResult{done, ok};
}

IoResult SubFtl::flush(SimTime now) {
  // Explicit host flush: every program the drain issues (and any GC it
  // triggers) attributes to the flush, not to the host write path.
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

void SubFtl::trim(std::uint64_t sector, std::uint32_t count) {
  check_range(sector, count);
  // Page-aligned contract (see Ftl::trim): only whole logical pages are
  // discarded. Partial edges keep their latest data -- crucially including
  // write-buffer entries, which may hold the ONLY copy of a sector's
  // newest version; dropping those would resurrect the stale flash copy.
  const std::uint32_t subs = geo_.subpages_per_page;
  const std::uint64_t first_lpn = (sector + subs - 1) / subs;
  const std::uint64_t end_lpn = (sector + count) / subs;
  for (std::uint64_t lpn = first_lpn; lpn < end_lpn; ++lpn) {
    for (std::uint32_t s = 0; s < subs; ++s) {
      buffer_.erase(lpn * subs + s);
      drop_subpage_copy(lpn * subs + s);
    }
    if (l2p_[lpn] != nand::kUnmapped) {
      pool_full_.invalidate(l2p_[lpn]);
      l2p_[lpn] = nand::kUnmapped;
    }
  }
}

SimTime SubFtl::tick(SimTime now) {
  if (now - last_retention_scan_ < config_.retention_scan_interval)
    return now;
  last_retention_scan_ = now;
  return pool_sub_.retention_scan(now);
}

std::uint64_t SubFtl::mapping_memory_bytes() const {
  // Coarse table: 32-bit PPA per logical page. Hash table: modeled 16 bytes
  // per entry (sector key + sub-PPA + flags); bounded by one valid subpage
  // per physical page of the subpage region.
  return l2p_.size() * sizeof(std::uint32_t) + sub_entries_ * 16;
}

void SubFtl::set_telemetry(telemetry::Sink* sink) {
  sink_ = sink;
  pool_full_.set_telemetry(sink);
  pool_sub_.set_telemetry(sink);
  if (!sink) return;
  telemetry::MetricsRegistry& reg = sink->registry();
  bind_stats(reg, name(), stats_);
  reg.gauge(name() + "/region_blocks").set_provider([this] {
    return static_cast<double>(pool_sub_.blocks_in_use());
  });
  reg.gauge(name() + "/region_valid_sectors").set_provider([this] {
    return static_cast<double>(pool_sub_.valid_sectors());
  });
  reg.gauge(name() + "/fullpage_blocks").set_provider([this] {
    return static_cast<double>(pool_full_.blocks_in_use());
  });
  reg.gauge(name() + "/mapping_memory_bytes").set_provider([this] {
    return static_cast<double>(mapping_memory_bytes());
  });
}

void SubFtl::save_state(util::StateWriter& w) const {
  w.tag("SUBF");
  save_stats(w, stats_);
  allocator_.save_state(w);
  pool_full_.save_state(w);
  pool_sub_.save_state(w);
  buffer_.save_state(w);
  w.pod_vec(l2p_);
  w.pod_vec(sub_lin_);
  w.bool_vec(sub_hot_);
  w.u64(sub_entries_);
  w.pod_vec(version_);
  w.f64(last_retention_scan_);
  w.u32(writes_since_wl_);
  w.b(wl_toggle_);
}

void SubFtl::load_state(util::StateReader& r) {
  r.tag("SUBF");
  load_stats(r, stats_);
  allocator_.load_state(r);
  pool_full_.load_state(r);
  pool_sub_.load_state(r);
  buffer_.load_state(r);
  r.pod_vec(l2p_);
  r.pod_vec(sub_lin_);
  r.bool_vec(sub_hot_);
  sub_entries_ = r.u64();
  r.pod_vec(version_);
  last_retention_scan_ = r.f64();
  writes_since_wl_ = r.u32();
  wl_toggle_ = r.b();
}

}  // namespace esp::ftl
