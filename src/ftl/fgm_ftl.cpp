#include "ftl/fgm_ftl.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "telemetry/metrics.h"

namespace esp::ftl {

FgmFtl::FgmFtl(nand::NandDevice& dev, const Config& config)
    : dev_(dev),
      config_(config),
      geo_(dev.geometry()),
      codec_(geo_),
      allocator_(geo_),
      pool_(dev, allocator_,
            FinePool::Config{/*quota_blocks=*/~0ull, config.gc_reserve_blocks,
                             config.reference_scan_maintenance},
            stats_,
            [this](std::uint64_t sector, std::uint64_t new_lin) {
              l2p_[sector] = new_lin;
            }),
      buffer_(config.buffer_sectors, geo_.subpages_per_page) {
  if (config_.logical_sectors == 0)
    throw std::invalid_argument("FgmFtl: logical_sectors must be > 0");
  if (config_.logical_sectors > geo_.total_subpages())
    throw std::invalid_argument("FgmFtl: logical space exceeds physical");
  l2p_.assign(config_.logical_sectors, nand::kUnmapped);
  version_.assign(config_.logical_sectors, 0);
}

void FgmFtl::check_range(std::uint64_t sector, std::uint32_t count) const {
  if (count == 0 || sector + count > config_.logical_sectors)
    throw std::out_of_range("FgmFtl: sector range outside logical space");
}

SimTime FgmFtl::flush_run(std::span<const BufferedSector> run,
                          SimTime now) {
  // The FGM scheme merges small writes only when their logical block
  // addresses are consecutive (paper Sec. 2). Because mapping is
  // per-sector, a contiguous run packs densely into pages with NO
  // alignment requirement (this is why FGM dodges the misaligned-write
  // penalty of footnote 1); anything shorter than a full page goes out
  // sparse -- the internal fragmentation Fig. 2 measures.
  // (`run` is one sorted contiguous run; chop it into page-sized groups.)
  const std::uint32_t subs = geo_.subpages_per_page;
  SimTime done = now;
  std::size_t i = 0;
  while (i < run.size()) {
    std::size_t j = i + 1;
    while (j < run.size() && j - i < subs &&
           run[j].sector == run[j - 1].sector + 1)
      ++j;
    const std::size_t n = j - i;
    std::array<SectorWrite, nand::kMaxSubpagesPerPage> group{};
    std::uint64_t small_in_group = 0;
    for (std::size_t k = i; k < j; ++k) {
      const BufferedSector& bs = run[k];
      // Drop the stale flash copy before placing the fresh one.
      if (l2p_[bs.sector] != nand::kUnmapped) {
        pool_.invalidate(l2p_[bs.sector]);
        l2p_[bs.sector] = nand::kUnmapped;
      }
      group[k - i] = SectorWrite{bs.sector, bs.token};
      if (bs.small) ++small_in_group;
    }
    done = std::max(done, pool_.write_group(
                              std::span<const SectorWrite>(group.data(), n),
                              now));
    // Attribute the page's cost proportionally to its small-write sectors:
    // a lone sync 4-KB sector pays the whole 16-KB page (request WAF 4),
    // four merged ones pay 4 KB each (request WAF 1). Multiply before
    // dividing -- page_bytes / n truncates for 3-sector merges and would
    // leak up to n-1 bytes of attributed cost per group.
    stats_.small_service_flash_bytes +=
        small_in_group * geo_.page_bytes / n;
    i = j;
  }
  return done;
}

IoResult FgmFtl::write(std::uint64_t sector, std::uint32_t count, bool sync,
                       SimTime now) {
  check_range(sector, count);
  if (config_.wl_check_interval > 0 &&
      ++writes_since_wl_ >= config_.wl_check_interval) {
    writes_since_wl_ = 0;
    now = pool_.static_wear_level(now, config_.wl_pe_threshold);
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
    // Durability demanded now: flush this request's sectors together with
    // any contiguous buffered neighbors (the only merge still possible).
    buffer_.extract_run(sector, run_);
    done = std::max(done, flush_run(run_, now));
  }
  while (buffer_.over_capacity()) {
    buffer_.extract_oldest_run(run_);
    if (run_.empty()) break;
    done = std::max(done, flush_run(run_, now));
  }
  return IoResult{done, true};
}

IoResult FgmFtl::read(std::uint64_t sector, std::uint32_t count, SimTime now,
                      std::vector<std::uint64_t>* tokens) {
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
    } else if (l2p_[s] != nand::kUnmapped) {
      const auto ack = dev_.read_subpage(codec_.decode_subpage(l2p_[s]), now);
      ++stats_.flash_reads;
      token = ack.token;
      if (ack.status != nand::ReadStatus::kOk) {
        ok = false;
        ++stats_.read_failures;
      }
      done = std::max(done, ack.done);
    }
    if (tokens) (*tokens)[i] = token;
  }
  return IoResult{done, ok};
}

IoResult FgmFtl::flush(SimTime now) {
  // Explicit host flush: programs issued by the drain (and any GC they
  // trigger) attribute to the flush, not to the host write path.
  const telemetry::CauseScope cause(sink_, telemetry::Cause::kFlush,
                                    buffer_.size(), now);
  SimTime done = now;
  while (!buffer_.empty()) {
    buffer_.extract_oldest_run(run_);
    if (run_.empty()) break;
    done = std::max(done, flush_run(run_, now));
  }
  return IoResult{done, true};
}

void FgmFtl::trim(std::uint64_t sector, std::uint32_t count) {
  check_range(sector, count);
  // Page-aligned contract (see Ftl::trim): although the mapping is
  // per-sector, only sectors of whole logical pages inside the range are
  // dropped -- including their buffered copies. Partial edges keep their
  // newest data.
  const std::uint32_t subs = geo_.subpages_per_page;
  const std::uint64_t first = (sector + subs - 1) / subs * subs;
  const std::uint64_t end = (sector + count) / subs * subs;
  for (std::uint64_t s = first; s < end; ++s) {
    buffer_.erase(s);
    if (l2p_[s] != nand::kUnmapped) {
      pool_.invalidate(l2p_[s]);
      l2p_[s] = nand::kUnmapped;
    }
  }
}

std::uint64_t FgmFtl::mapping_memory_bytes() const {
  // One 32-bit sub-PPA per sector: Nsub x the CGM table.
  return l2p_.size() * sizeof(std::uint32_t);
}

void FgmFtl::set_telemetry(telemetry::Sink* sink) {
  sink_ = sink;
  pool_.set_telemetry(sink);
  if (!sink) return;
  telemetry::MetricsRegistry& reg = sink->registry();
  bind_stats(reg, name(), stats_);
  reg.gauge(name() + "/fine_blocks").set_provider([this] {
    return static_cast<double>(pool_.blocks_in_use());
  });
  reg.gauge(name() + "/mapping_memory_bytes").set_provider([this] {
    return static_cast<double>(mapping_memory_bytes());
  });
}

void FgmFtl::save_state(util::StateWriter& w) const {
  w.tag("FGMF");
  save_stats(w, stats_);
  allocator_.save_state(w);
  pool_.save_state(w);
  buffer_.save_state(w);
  w.pod_vec(l2p_);
  w.pod_vec(version_);
  w.u32(writes_since_wl_);
}

void FgmFtl::load_state(util::StateReader& r) {
  r.tag("FGMF");
  load_stats(r, stats_);
  allocator_.load_state(r);
  pool_.load_state(r);
  buffer_.load_state(r);
  r.pod_vec(l2p_);
  r.pod_vec(version_);
  writes_since_wl_ = r.u32();
}

}  // namespace esp::ftl
