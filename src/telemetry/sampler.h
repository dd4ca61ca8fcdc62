// Time-series sampler: periodic snapshots of throughput, WAF, GC/wear
// activity, region occupancy and per-op latency percentiles over each
// sampling window of simulated time.
//
// The sampler itself is passive storage plus cadence bookkeeping: the
// driver (the only component that sees the FTL, device and clock at once)
// decides when a window closes, fills in a `Sample` from counter deltas,
// and pushes it. Rows export as CSV (fixed, documented column schema --
// see docs/TELEMETRY.md) or JSON.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/sink.h"
#include "util/serialize.h"

namespace esp::telemetry {

/// One closed sampling window. Counter-like fields are windowed deltas,
/// `region_*` are point-in-time gauges, percentiles are computed over the
/// window's per-op latency histograms.
struct Sample {
  double sim_time_s = 0.0;  ///< window end, simulated seconds
  std::uint64_t requests = 0;
  double iops = 0.0;
  double request_waf = 1.0;  ///< small-write request WAF (paper Table 1)
  double overall_waf = 1.0;
  std::uint64_t gc_invocations = 0;
  std::uint64_t gc_copy_sectors = 0;
  std::uint64_t erases = 0;
  std::uint64_t prog_full = 0;
  std::uint64_t prog_sub = 0;
  std::uint64_t forward_migrations = 0;
  std::uint64_t retention_evictions = 0;
  std::uint64_t rmw_ops = 0;
  double region_blocks = 0.0;         ///< subpage/log region occupancy
  double region_valid_sectors = 0.0;
  double op_p50_us[kOpKindCount] = {};
  double op_p99_us[kOpKindCount] = {};
  double all_ops_p50_us = 0.0;  ///< merged across every op lane
  double all_ops_p99_us = 0.0;
  double all_ops_p999_us = 0.0;
};

class TimeSeriesSampler {
 public:
  /// @param interval_us  sampling period in simulated microseconds;
  ///                     0 disables the sampler entirely.
  explicit TimeSeriesSampler(SimTime interval_us = 0.0);

  bool enabled() const { return interval_us_ > 0.0; }
  SimTime interval_us() const { return interval_us_; }

  /// Anchors the first window at `now` (called once at attach).
  void start(SimTime now);
  /// True when the current window has elapsed at simulated time `now`.
  /// Inline: the driver asks after every request.
  bool due(SimTime now) const { return enabled() && now >= next_due_us_; }

  /// Appends a closed window and re-arms the cadence from `now`.
  void push(const Sample& sample, SimTime now);

  const std::vector<Sample>& samples() const { return samples_; }
  /// Sim-time of the last pushed sample (us); -1 when none yet.
  SimTime last_sample_us() const { return last_sample_us_; }

  /// Fixed CSV schema (stable across runs; append-only evolution).
  static std::string csv_header();
  void write_csv(std::ostream& os) const;
  /// JSON array of row objects (same fields as the CSV columns).
  void write_json(std::ostream& os) const;

  /// Snapshot support: cadence cursors + every closed window, so a
  /// restored run's sample series continues (and finally exports)
  /// byte-identically. The interval is part of the run's identity and
  /// must match.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  SimTime interval_us_;
  SimTime next_due_us_ = 0.0;
  SimTime last_sample_us_ = -1.0;
  std::vector<Sample> samples_;
};

}  // namespace esp::telemetry
