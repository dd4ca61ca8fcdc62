#include "core/ssd.h"

#include <algorithm>
#include <stdexcept>

#include "ftl/cgm_ftl.h"
#include "ftl/fgm_ftl.h"
#include "ftl/sector_log_ftl.h"
#include "ftl/sub_ftl.h"
#include "util/logger.h"

namespace esp::core {

std::string ftl_kind_name(FtlKind kind) {
  switch (kind) {
    case FtlKind::kCgm: return "cgmFTL";
    case FtlKind::kFgm: return "fgmFTL";
    case FtlKind::kSub: return "subFTL";
    case FtlKind::kSectorLog: return "sectorLogFTL";
  }
  throw std::invalid_argument("ftl_kind_name: unknown kind");
}

std::uint64_t SsdConfig::logical_sectors() const {
  const auto physical = geometry.total_subpages();
  auto sectors = static_cast<std::uint64_t>(
      logical_fraction * static_cast<double>(physical));
  // Round down to a whole logical page so trims/preconditioning align.
  sectors -= sectors % geometry.subpages_per_page;
  return std::max<std::uint64_t>(sectors, geometry.subpages_per_page);
}

void SsdConfig::validate() const {
  geometry.validate();
  if (logical_fraction <= 0.0 || logical_fraction >= 1.0)
    throw std::invalid_argument(
        "SsdConfig: logical_fraction must be in (0, 1) -- flash needs "
        "over-provisioning headroom");
  if (subpage_region_fraction <= 0.0 || subpage_region_fraction >= 1.0)
    throw std::invalid_argument(
        "SsdConfig: subpage_region_fraction must be in (0, 1)");
}

Ssd::Ssd(const SsdConfig& config) : config_(config) {
  config_.validate();
  device_ = std::make_unique<nand::NandDevice>(
      config_.geometry, config_.timing,
      nand::RetentionModel(config_.retention));
  ftl::FtlConfig c;
  c.logical_sectors = config_.logical_sectors();
  c.gc_reserve_blocks = config_.gc_reserve_blocks;
  c.buffer_sectors = config_.buffer_sectors;
  c.wl_pe_threshold = config_.wl_pe_threshold;
  c.wl_check_interval = config_.wl_check_interval;
  c.use_copyback = config_.use_copyback;
  c.reference_scan_maintenance = config_.reference_scan_maintenance;
  switch (config_.ftl) {
    case FtlKind::kCgm:
      ftl_ = std::make_unique<ftl::CgmFtl>(*device_, c);
      break;
    case FtlKind::kFgm:
      ftl_ = std::make_unique<ftl::FgmFtl>(*device_, c);
      break;
    case FtlKind::kSub: {
      ftl::SubFtl::Config sub{c};
      sub.subpage_region_fraction = config_.subpage_region_fraction;
      sub.retention_evict_age = config_.retention_evict_age;
      sub.retention_scan_interval = config_.retention_scan_interval;
      ftl_ = std::make_unique<ftl::SubFtl>(*device_, sub);
      break;
    }
    case FtlKind::kSectorLog: {
      ftl::SectorLogFtl::Config log{c};
      log.log_region_fraction = config_.subpage_region_fraction;
      ftl_ = std::make_unique<ftl::SectorLogFtl>(*device_, log);
      break;
    }
  }
  driver_ = std::make_unique<sim::Driver>(*ftl_, *device_, config_.queue_depth);
  // Stamp log lines with this SSD's simulated clock. Last constructed wins
  // when several coexist; the destructor clears it, so the provider never
  // outlives a driver.
  util::set_log_sim_time_provider(
      [driver = driver_.get()] { return driver->now(); });
}

Ssd::~Ssd() {
  util::set_log_sim_time_provider(nullptr);
  // Sever the registry's references into device/FTL state before it dies:
  // bound counters and provider gauges become owned snapshots, so the
  // caller can still export metrics after this Ssd is destroyed.
  if (telemetry_) telemetry_->registry().materialize();
}

void Ssd::attach_telemetry(telemetry::Telemetry* telemetry, bool resume) {
  telemetry_ = telemetry;
  device_->set_telemetry(telemetry);
  ftl_->set_telemetry(telemetry);
  driver_->set_telemetry(telemetry, resume);
}

void Ssd::save_state(util::StateWriter& w) const {
  w.tag("SSD0");
  device_->save_state(w);
  ftl_->save_state(w);
  driver_->save_state(w);
}

void Ssd::load_state(util::StateReader& r) {
  r.tag("SSD0");
  device_->load_state(r);
  ftl_->load_state(r);
  driver_->load_state(r);
}

void Ssd::precondition(double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const std::uint32_t subs = config_.geometry.subpages_per_page;
  const std::uint64_t sectors = logical_sectors();
  const auto fill_sectors = static_cast<std::uint64_t>(
                                fraction * static_cast<double>(sectors)) /
                            subs * subs;
  // Large aligned sequential writes: fastest path on every FTL and the
  // same preconditioning the paper applies before each measurement.
  const std::uint32_t chunk = subs * 8;
  for (std::uint64_t s = 0; s < fill_sectors; s += chunk) {
    const auto n =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(chunk,
                                                           fill_sectors - s));
    driver_->submit(workload::Request{workload::Request::Type::kWrite, s, n,
                                      /*sync=*/false, /*think_us=*/0.0});
  }
  driver_->flush();
}

}  // namespace esp::core
