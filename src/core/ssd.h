// Top-level facade: one configured SSD = NAND device + FTL + driver.
//
// This is the public entry point a downstream user starts from:
//
//   esp::core::SsdConfig cfg;                 // paper-default 16-GiB SSD
//   cfg.ftl = esp::core::FtlKind::kSub;       // ESP-aware subFTL
//   esp::core::Ssd ssd(cfg);
//   ssd.driver().submit({...});               // or run a whole workload
//
// See examples/quickstart.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ftl/ftl.h"
#include "nand/device.h"
#include "nand/geometry.h"
#include "nand/retention_model.h"
#include "nand/timing.h"
#include "sim/driver.h"
#include "telemetry/telemetry.h"
#include "util/serialize.h"

namespace esp::core {

enum class FtlKind {
  kCgm,        ///< coarse-grained baseline (RMW for small writes)
  kFgm,        ///< fine-grained baseline (merge buffer, padded pages)
  kSub,        ///< the paper's ESP-aware subFTL
  kSectorLog,  ///< related-work hybrid (log region, no ESP) [Jin et al.]
};

std::string ftl_kind_name(FtlKind kind);

struct SsdConfig {
  nand::Geometry geometry;  ///< default: 8ch x 4chip, 16-KB pages, 16 GiB
  nand::TimingSpec timing;
  nand::RetentionModelParams retention;
  FtlKind ftl = FtlKind::kSub;

  /// Host-visible capacity as a fraction of raw flash; the rest is
  /// over-provisioning. 0.80 is the largest fraction subFTL can guarantee
  /// with a 20% subpage region (worst case: all data cold in the full-page
  /// region). The paper's 10-GB fill on the 16-GB device corresponds to
  /// preconditioning 62.5% of physical = 78% of this logical space.
  double logical_fraction = 0.80;

  // subFTL knobs (ignored by the baselines).
  double subpage_region_fraction = 0.20;
  SimTime retention_evict_age = 15 * sim_time::kDay;
  SimTime retention_scan_interval = 1 * sim_time::kDay;

  // Shared FTL knobs.
  std::size_t buffer_sectors = 512;
  std::size_t gc_reserve_blocks = 8;

  /// Host queue depth (outstanding requests). High enough by default that
  /// throughput is flash-bound, as on the paper's multithreaded platform.
  std::uint32_t queue_depth = 64;

  /// Static wear leveling: every wl_check_interval host writes the FTL
  /// relocates its coldest sealed block if it lags the device's most-worn
  /// block by more than wl_pe_threshold erase cycles (0 interval disables).
  std::uint32_t wl_pe_threshold = 64;
  std::uint32_t wl_check_interval = 1024;

  /// GC page moves in the coarse-mapped pools use NAND copy-back when the
  /// destination stays on the source chip (saves both channel transfers).
  bool use_copyback = false;

  /// Debug/differential mode: run FTL maintenance paths (retention scan,
  /// static wear leveling, idle-block release) with the original O(device)
  /// linear scans instead of the incrementally maintained indices.
  /// Decisions are bit-identical either way -- pinned by the journal
  /// byte-compare in tests and CI (see docs/PERFORMANCE.md).
  bool reference_scan_maintenance = false;

  std::uint64_t logical_sectors() const;

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

class Ssd {
 public:
  explicit Ssd(const SsdConfig& config);
  ~Ssd();

  // Non-copyable, non-movable: driver/ftl hold references into the device.
  Ssd(const Ssd&) = delete;
  Ssd& operator=(const Ssd&) = delete;

  const SsdConfig& config() const { return config_; }
  nand::NandDevice& device() { return *device_; }
  const nand::NandDevice& device() const { return *device_; }
  ftl::Ftl& ftl() { return *ftl_; }
  const ftl::Ftl& ftl() const { return *ftl_; }
  sim::Driver& driver() { return *driver_; }

  std::uint64_t logical_sectors() const { return ftl_->logical_sectors(); }

  /// Sequentially fills `fraction` of the logical space with full-page
  /// writes and flushes -- the paper's preconditioning step (10 GB onto the
  /// 16-GB device) that puts the FTL into steady state before measuring.
  void precondition(double fraction = 1.0);

  /// Wires the telemetry facade through every layer: the device and FTL
  /// bind their counters/gauges and start recording op events, the driver
  /// opens request spans and runs the time-series sampler. Pass nullptr to
  /// detach. The facade must outlive the Ssd OR outlive it gracefully: the
  /// destructor materializes the registry, so metric exports remain valid
  /// after this Ssd is gone.
  ///
  /// With `resume` set, the driver attaches WITHOUT re-baselining its
  /// sampling cursors and without the epoch-0 health snapshot -- used when
  /// restoring from a snapshot, AFTER load_state: the cursors arrive via
  /// load_state, and a health monitor with no epoch yet is re-based from
  /// the restored counters.
  void attach_telemetry(telemetry::Telemetry* telemetry, bool resume = false);

  /// Snapshot support (core/snapshot.h): archives device -> FTL -> driver
  /// under one "SSD0" section. Restore order: construct from the identical
  /// SsdConfig, load_state, then attach_telemetry(tel, /*resume=*/true) if
  /// telemetry is wanted. Must be called between host requests.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  SsdConfig config_;
  std::unique_ptr<nand::NandDevice> device_;
  std::unique_ptr<ftl::Ftl> ftl_;
  std::unique_ptr<sim::Driver> driver_;
  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace esp::core
