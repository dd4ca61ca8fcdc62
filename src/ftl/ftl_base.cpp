#include "ftl/ftl_base.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace esp::ftl {

std::uint64_t region_quota_blocks(const nand::Geometry& geo, double fraction) {
  const auto quota = static_cast<std::uint64_t>(
      std::llround(fraction * static_cast<double>(geo.total_blocks())));
  return std::max<std::uint64_t>(quota, geo.total_chips());
}

FtlBase::FtlBase(nand::NandDevice& dev, const FtlConfig& config,
                 const char* name, const char (&tag)[5])
    : dev_(dev),
      config_(config),
      geo_(dev.geometry()),
      codec_(geo_),
      allocator_(geo_),
      name_(name),
      tag_(tag) {
  if (config_.logical_sectors == 0)
    throw std::invalid_argument(name_ + ": logical_sectors must be > 0");
  if (config_.logical_sectors > geo_.total_subpages())
    throw std::invalid_argument(name_ + ": logical space exceeds physical");
  version_.assign(config_.logical_sectors, 0);
}

void FtlBase::range_error() const {
  throw std::out_of_range(name_ + ": sector range outside logical space");
}

void FtlBase::check_region(double fraction) const {
  if (fraction <= 0.0 || fraction >= 1.0)
    throw std::invalid_argument(name_ + ": region fraction must be in (0, 1)");
  // Hard feasibility, worst case: every logical page valid and cold in the
  // full-page region while the region sits at its quota. Configs near this
  // bound still work -- the region stops expanding under space pressure
  // and GC falls back gracefully -- but beyond it the data literally
  // cannot fit.
  const std::uint64_t region_pages =
      region_quota_blocks(geo_, fraction) * geo_.pages_per_block;
  if (logical_pages() + region_pages > geo_.total_pages())
    throw std::invalid_argument(
        name_ + ": logical space plus region quota exceeds physical "
                "capacity; reduce logical_sectors or the region fraction");
}

IoResult FtlBase::write(std::uint64_t sector, std::uint32_t count, bool sync,
                        SimTime now) {
  check_range(sector, count);
  now = before_write(now);
  if (config_.wl_check_interval > 0 &&
      ++writes_since_wl_ >= config_.wl_check_interval) {
    writes_since_wl_ = 0;
    wl_turn_ = !wl_turn_;
    now = wear_level(now, wl_turn_);
  }
  ++stats_.host_write_requests;
  stats_.host_write_sectors += count;
  const bool small = count < geo_.subpages_per_page;
  if (small) {
    ++stats_.small_write_requests;
    stats_.small_write_bytes +=
        static_cast<std::uint64_t>(count) * geo_.subpage_bytes();
  }
  return IoResult{write_sectors(sector, count, sync, small, now), true};
}

void FtlBase::trim(std::uint64_t sector, std::uint32_t count) {
  check_range(sector, count);
  // Page-aligned contract (see Ftl::trim): only whole logical pages inside
  // the range are discarded. Partial edges keep their latest data --
  // crucially including write-buffer entries, which may hold the ONLY copy
  // of a sector's newest version.
  const std::uint32_t subs = geo_.subpages_per_page;
  const std::uint64_t end_lpn = (sector + count) / subs;
  for (std::uint64_t lpn = (sector + subs - 1) / subs; lpn < end_lpn; ++lpn)
    trim_page(lpn);
}

void FtlBase::set_telemetry(telemetry::Telemetry* tel) {
  tel_ = tel;
  attach(tel);
  if (!tel) return;
  bind_stats(tel->registry(), name_, stats_);
  gauge(*tel, "mapping_memory_bytes", [this] {
    return mapping_memory_bytes();
  });
}

void FtlBase::save_state(util::StateWriter& w) const {
  w.tag(tag_);
  save_stats(w, stats_);
  allocator_.save_state(w);
  w.pod_vec(version_);
  w.u32(writes_since_wl_);
  w.b(wl_turn_);
  save_body(w);
}

void FtlBase::load_state(util::StateReader& r) {
  r.tag(tag_);
  load_stats(r, stats_);
  allocator_.load_state(r);
  r.pod_fixed(std::span(version_));
  writes_since_wl_ = r.u32();
  wl_turn_ = r.b();
  load_body(r);
}

BufferedFtl::BufferedFtl(nand::NandDevice& dev, const FtlConfig& config,
                         const char* name, const char (&tag)[5],
                         MergeUnit unit)
    : FtlBase(dev, config, name, tag),
      buffer_(config.buffer_sectors, geo_.subpages_per_page),
      unit_(unit) {}

SimTime BufferedFtl::write_sectors(std::uint64_t sector, std::uint32_t count,
                                   bool sync, bool small, SimTime now) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t s = sector + i;
    if (buffer_.insert(s, make_token(s, ++version_[s]), small))
      ++stats_.buffer_hits;
  }
  SimTime done = now + kBufferInsertUs;
  if (sync) {
    // Durability demanded now: flush this request's merge unit (the only
    // merge still possible).
    if (unit_ == MergeUnit::kRun)
      buffer_.extract_run(sector, run_);
    else
      buffer_.extract_page_group(sector, run_);
    done = std::max(done, flush_run(run_, now));
  }
  return drain(/*all=*/false, now, done);
}

SimTime BufferedFtl::drain(bool all, SimTime now, SimTime done) {
  while (all ? !buffer_.empty() : buffer_.over_capacity()) {
    if (unit_ == MergeUnit::kRun)
      buffer_.extract_oldest_run(run_);
    else
      buffer_.extract_oldest_page_group(run_);
    if (run_.empty()) break;
    done = std::max(done, flush_run(run_, now));
  }
  return done;
}

IoResult BufferedFtl::flush(SimTime now) {
  // Explicit host flush: programs issued by the drain (and any GC they
  // trigger) attribute to the flush, not to the host write path.
  const telemetry::CauseScope cause(tel_, telemetry::Cause::kFlush,
                                    buffer_.size(), now);
  return IoResult{drain(/*all=*/true, now, now), true};
}

}  // namespace esp::ftl
