// Multi-tenant namespace multiplexer over the closed-loop driver.
//
// Several tenants share ONE physical device and ONE FTL instance, but each
// gets:
//   * its own logical-sector namespace -- a contiguous, page-aligned slice
//     of the shared logical space; tenant-local sector addresses are
//     rebased by the slice base on submission, so tenants cannot touch
//     each other's data (out-of-slice requests are rejected);
//   * its own arrival clock -- think times pace each tenant independently,
//     so a paced latency-sensitive reader and a full-throttle bulk writer
//     coexist on one simulated timeline;
//   * its own in-flight window (per-tenant queue depth) -- a tenant can
//     keep at most `queue_depth` requests outstanding, bounding how much
//     of the device window one tenant may occupy.
//
// When the shared device can accept another request, a QosScheduler picks
// which tenant goes next (see sim/qos.h). Response time is measured from
// the tenant's true arrival, so scheduling delay inflicted by a noisy
// neighbor is visible in that tenant's percentiles.
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "sim/driver.h"
#include "sim/qos.h"
#include "workload/request.h"

namespace esp::telemetry {
class Counter;
class MetricsRegistry;
}

namespace esp::sim {

/// Static description of one tenant.
struct TenantConfig {
  std::string name;               ///< metrics scope ("tenant/<name>/...")
  double weight = 1.0;            ///< weighted-share allocation
  std::uint32_t queue_depth = 8;  ///< max in-flight requests for this tenant
};

/// One tenant's slice of the shared logical space, in 4-KB sectors.
struct TenantNamespace {
  std::uint64_t base = 0;     ///< first shared-space sector of the slice
  std::uint64_t sectors = 0;  ///< slice length
};

/// Splits `logical_sectors` into `tenants` equal page-aligned slices.
/// Page alignment keeps trim semantics intact across the rebase (a
/// tenant-local whole-page trim stays whole-page in the shared space).
/// Throws std::invalid_argument if the space cannot give every tenant at
/// least one logical page.
std::vector<TenantNamespace> partition_namespaces(
    std::uint64_t logical_sectors, std::size_t tenants,
    std::uint32_t sectors_per_page);

/// Per-tenant outcome of one mux run. Latency definitions match
/// sim::RunMetrics: service = issue->done, response = arrival->done, and
/// both cover this run only.
struct TenantMetrics {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t read_requests = 0;
  std::uint64_t host_write_sectors = 0;
  std::uint64_t host_read_sectors = 0;
  double service_p50_us = 0.0;
  double service_p99_us = 0.0;
  double service_p999_us = 0.0;
  double response_p50_us = 0.0;
  double response_p99_us = 0.0;
  double response_p999_us = 0.0;
  /// Queue wait (issue - arrival = response - service): time the request
  /// sat waiting for scheduling + a window slot before the device saw it.
  double wait_p50_us = 0.0;
  double wait_p99_us = 0.0;
  double wait_p999_us = 0.0;
  util::Histogram service_hist = make_latency_histogram();
  util::Histogram response_hist = make_latency_histogram();
  util::Histogram wait_hist = make_latency_histogram();

  /// Sets the nine percentile fields from the three histograms.
  void fill_percentiles() {
    set_percentiles(service_hist, service_p50_us, service_p99_us,
                    service_p999_us);
    set_percentiles(response_hist, response_p50_us, response_p99_us,
                    response_p999_us);
    set_percentiles(wait_hist, wait_p50_us, wait_p99_us, wait_p999_us);
  }

  /// This tenant's share of host-written sectors; the experiment layer
  /// multiplies it into the shared FTL's WAF for per-tenant attribution.
  double write_share(std::uint64_t total_write_sectors) const {
    return total_write_sectors == 0
               ? 0.0
               : static_cast<double>(host_write_sectors) /
                     static_cast<double>(total_write_sectors);
  }
};

/// Outcome of one mux run: the whole window, closed through the driver
/// like Driver::run's, and each tenant's share of it.
struct MuxRunMetrics {
  RunMetrics window;
  std::vector<TenantMetrics> tenants;

  std::uint64_t total_host_write_sectors() const {
    std::uint64_t total = 0;
    for (const TenantMetrics& t : tenants) total += t.host_write_sectors;
    return total;
  }
};

class TenantMux {
 public:
  /// One tenant's static wiring: configuration, namespace slice, and the
  /// request stream that feeds it (tenant-local sector addresses).
  struct Lane {
    TenantConfig config;
    TenantNamespace ns;
    workload::RequestSource* source = nullptr;
  };

  /// The driver must outlive the mux. Lanes are fixed for the mux's life;
  /// their indices are the `tenant` ids stamped onto submitted requests.
  TenantMux(Driver& driver, QosPolicy policy, std::vector<Lane> lanes);

  /// Publishes per-tenant counters ("tenant/<name>/requests",
  /// ".../host_write_sectors", ".../host_read_sectors") into the registry.
  /// Call before run(); nullptr detaches.
  void set_registry(telemetry::MetricsRegistry* registry);

  /// Drives all lanes until every source is exhausted or `max_requests`
  /// total requests were served (0 = to exhaustion). Callable repeatedly:
  /// a warmup call then a measure call, each reporting its own window.
  MuxRunMetrics run(bool verify = true, std::uint64_t max_requests = 0);

 private:
  struct LaneRt {
    Lane fixed;
    SimTime arrival = 0.0;  ///< tenant-local arrival clock
    /// Completion times of this tenant's in-flight requests (min-heap,
    /// size <= config.queue_depth).
    std::priority_queue<SimTime, std::vector<SimTime>, std::greater<>>
        inflight;
    workload::Request pending;  ///< valid iff has_pending
    bool has_pending = false;
    bool exhausted = false;
    // Registry counters (nullptr when no registry attached).
    telemetry::Counter* c_requests = nullptr;
    telemetry::Counter* c_write_sectors = nullptr;
    telemetry::Counter* c_read_sectors = nullptr;
  };

  /// Pulls the next request into an empty, non-exhausted lane; advances
  /// the lane's arrival clock by the request's think time.
  void refill(LaneRt& lane);
  /// Earliest issue time for the lane's pending request under its own
  /// window (does not consult the device window).
  SimTime lane_ready(const LaneRt& lane) const;

  Driver& driver_;
  QosScheduler scheduler_;
  std::vector<LaneRt> lanes_;
  std::vector<LaneState> states_;  // scratch for pick()
};

}  // namespace esp::sim
