#include "ftl/cgm_ftl.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "telemetry/metrics.h"

namespace esp::ftl {

CgmFtl::CgmFtl(nand::NandDevice& dev, const Config& config)
    : dev_(dev),
      config_(config),
      geo_(dev.geometry()),
      codec_(geo_),
      allocator_(geo_),
      pool_(dev, allocator_,
            FullPagePool::Config{{/*quota_blocks=*/~0ull,
                                  config.gc_reserve_blocks,
                                  config.reference_scan_maintenance},
                                 config.use_copyback},
            stats_,
            [this](std::uint64_t lpn, std::uint64_t new_lin) {
              l2p_[lpn] = new_lin;
            }) {
  if (config_.logical_sectors == 0)
    throw std::invalid_argument("CgmFtl: logical_sectors must be > 0");
  const std::uint64_t sectors_per_page = geo_.subpages_per_page;
  const std::uint64_t lpns =
      (config_.logical_sectors + sectors_per_page - 1) / sectors_per_page;
  const std::uint64_t physical_sectors = geo_.total_subpages();
  if (config_.logical_sectors > physical_sectors)
    throw std::invalid_argument("CgmFtl: logical space exceeds physical");
  l2p_.assign(lpns, nand::kUnmapped);
  version_.assign(config_.logical_sectors, 0);
}

void CgmFtl::check_range(std::uint64_t sector, std::uint32_t count) const {
  if (count == 0 || sector + count > config_.logical_sectors)
    throw std::out_of_range("CgmFtl: sector range outside logical space");
}

SimTime CgmFtl::write_lpn(std::uint64_t lpn, std::uint32_t first_slot,
                          std::uint32_t slot_count, bool small_request,
                          SimTime now) {
  const std::uint32_t subs = geo_.subpages_per_page;
  std::array<std::uint64_t, nand::kMaxSubpagesPerPage> page_tokens{};
  const std::span<std::uint64_t> tokens(page_tokens.data(), subs);
  SimTime t = now;

  const bool partial = slot_count < subs;
  const std::uint64_t old_lin = l2p_[lpn];
  const bool is_rmw = partial && old_lin != nand::kUnmapped;
  // The whole read + merge + program services a small write via RMW; any
  // GC the program triggers nests under this scope (chain host>rmw>gc).
  std::optional<telemetry::CauseScope> rmw_cause;
  if (is_rmw && sink_)
    rmw_cause.emplace(sink_, telemetry::Cause::kRmw, lpn, now);
  if (is_rmw) {
    // Read-modify-write: fetch the old page to preserve untouched sectors.
    t = pool_.read_for_rmw(old_lin, tokens, t);
  }

  for (std::uint32_t i = 0; i < slot_count; ++i) {
    const std::uint32_t slot = first_slot + i;
    const std::uint64_t sector =
        lpn * subs + slot;
    tokens[slot] = make_token(sector, ++version_[sector]);
  }

  // Invalidate the stale copy before programming: GC may run inside
  // write_page, and a still-valid old page would be pointlessly copied
  // (or relocated, leaving old_lin dangling).
  if (old_lin != nand::kUnmapped) {
    pool_.invalidate(old_lin);
    l2p_[lpn] = nand::kUnmapped;
  }
  const auto [new_lin, done] = pool_.write_page(lpn, tokens, t);
  l2p_[lpn] = new_lin;
  if (small_request)
    stats_.small_service_flash_bytes += geo_.page_bytes;
  if (sink_ && is_rmw && sink_->wants_op(telemetry::OpKind::kRmw))
    sink_->record_op({telemetry::OpKind::kRmw, now, done, slot_count});
  return done;
}

IoResult CgmFtl::write(std::uint64_t sector, std::uint32_t count, bool /*sync*/,
                       SimTime now) {
  check_range(sector, count);
  if (config_.wl_check_interval > 0 &&
      ++writes_since_wl_ >= config_.wl_check_interval) {
    writes_since_wl_ = 0;
    now = pool_.static_wear_level(now, config_.wl_pe_threshold);
  }
  ++stats_.host_write_requests;
  stats_.host_write_sectors += count;
  const std::uint32_t subs = geo_.subpages_per_page;
  const bool small = count < subs;
  if (small) {
    ++stats_.small_write_requests;
    stats_.small_write_bytes +=
        static_cast<std::uint64_t>(count) * geo_.subpage_bytes();
  }

  SimTime done = now;
  std::uint64_t s = sector;
  std::uint32_t remaining = count;
  while (remaining > 0) {
    const std::uint64_t lpn = s / subs;
    const auto slot = static_cast<std::uint32_t>(s % subs);
    const std::uint32_t in_page = std::min(remaining, subs - slot);
    done = std::max(done, write_lpn(lpn, slot, in_page, small, now));
    s += in_page;
    remaining -= in_page;
  }
  return IoResult{done, true};
}

IoResult CgmFtl::read(std::uint64_t sector, std::uint32_t count, SimTime now,
                      std::vector<std::uint64_t>* tokens) {
  check_range(sector, count);
  ++stats_.host_read_requests;
  stats_.host_read_sectors += count;
  if (tokens) tokens->assign(count, 0);

  const std::uint32_t subs = geo_.subpages_per_page;
  SimTime done = now;
  bool ok = true;
  std::uint64_t s = sector;
  std::uint32_t remaining = count;
  std::uint32_t out = 0;
  while (remaining > 0) {
    const std::uint64_t lpn = s / subs;
    const auto slot = static_cast<std::uint32_t>(s % subs);
    const std::uint32_t in_page = std::min(remaining, subs - slot);
    const std::uint64_t lin = l2p_[lpn];
    if (lin != nand::kUnmapped) {
      const auto read = dev_.read_page(codec_.decode_page(lin), now);
      ++stats_.flash_reads;
      for (std::uint32_t i = 0; i < in_page; ++i) {
        const auto st = read.status[slot + i];
        if (st == nand::ReadStatus::kCorrupted ||
            st == nand::ReadStatus::kUncorrectable) {
          ok = false;
          ++stats_.read_failures;
        }
        if (tokens) (*tokens)[out + i] = read.token[slot + i];
      }
      done = std::max(done, read.done);
    }
    s += in_page;
    remaining -= in_page;
    out += in_page;
  }
  return IoResult{done, ok};
}

IoResult CgmFtl::flush(SimTime now) { return IoResult{now, true}; }

void CgmFtl::trim(std::uint64_t sector, std::uint32_t count) {
  check_range(sector, count);
  const std::uint32_t subs = geo_.subpages_per_page;
  // Only whole logical pages can be dropped under coarse mapping; partial
  // trims at the edges are ignored (the device keeps the stale sectors).
  std::uint64_t first_lpn = (sector + subs - 1) / subs;
  std::uint64_t end_lpn = (sector + count) / subs;
  for (std::uint64_t lpn = first_lpn; lpn < end_lpn; ++lpn) {
    if (l2p_[lpn] == nand::kUnmapped) continue;
    pool_.invalidate(l2p_[lpn]);
    l2p_[lpn] = nand::kUnmapped;
  }
}

std::uint64_t CgmFtl::mapping_memory_bytes() const {
  // One 32-bit PPA per logical page.
  return l2p_.size() * sizeof(std::uint32_t);
}

void CgmFtl::set_telemetry(telemetry::Sink* sink) {
  sink_ = sink;
  pool_.set_telemetry(sink);
  if (!sink) return;
  telemetry::MetricsRegistry& reg = sink->registry();
  bind_stats(reg, name(), stats_);
  reg.gauge(name() + "/fullpage_blocks").set_provider([this] {
    return static_cast<double>(pool_.blocks_in_use());
  });
  reg.gauge(name() + "/mapping_memory_bytes").set_provider([this] {
    return static_cast<double>(mapping_memory_bytes());
  });
}

void CgmFtl::save_state(util::StateWriter& w) const {
  w.tag("CGMF");
  save_stats(w, stats_);
  allocator_.save_state(w);
  pool_.save_state(w);
  w.pod_vec(l2p_);
  w.pod_vec(version_);
  w.u32(writes_since_wl_);
}

void CgmFtl::load_state(util::StateReader& r) {
  r.tag("CGMF");
  load_stats(r, stats_);
  allocator_.load_state(r);
  pool_.load_state(r);
  r.pod_vec(l2p_);
  r.pod_vec(version_);
  writes_since_wl_ = r.u32();
}

}  // namespace esp::ftl
