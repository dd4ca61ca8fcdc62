// Closed-loop host driver: feeds a request stream into an FTL, carries the
// simulated clock, and verifies end-to-end data integrity.
//
// Verification: the driver mirrors the FTL's deterministic token rule
// (token = make_token(sector, nth-write-of-sector)), so every read can be
// checked against the expected latest version. A mapping bug, an ESP
// corruption or a retention violation all surface as verify_failures.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "ftl/ftl.h"
#include "nand/device.h"
#include "util/histogram.h"
#include "util/huge_pages.h"
#include "workload/request.h"

namespace esp::telemetry {
class Telemetry;
struct HealthTotals;
}

namespace esp::sim {

/// Every request-latency histogram: linear 0-200 ms in 100-us buckets,
/// covering buffered hits through GC stalls. Histogram::merge drops a
/// histogram of another shape, so every latency histogram that may be
/// merged is made here.
inline util::Histogram make_latency_histogram() {
  return util::Histogram(0.0, 200000.0, 2000);
}

/// Reads `h`'s p50, p99 and p999 into the three fields.
inline void set_percentiles(const util::Histogram& h, double& p50, double& p99,
                            double& p999) {
  p50 = h.percentile(0.50);
  p99 = h.percentile(0.99);
  p999 = h.percentile(0.999);
}

/// Outcome of one measured window (Driver::mark_window ..
/// Driver::close_window): every count, rate and distribution covers THIS
/// window only, so preconditioning and warmup traffic never pollute it.
/// `device_erases` and `end_us` are the only point-in-time values.
///
/// Two latency definitions:
///   * service time  = issue -> completion (the device's work);
///   * response time = arrival -> completion (what the host experiences,
///     including the wait for a free queue-depth slot).
/// Arrivals are open-loop (paced) for requests with think_us > 0 --
/// queueing behind a saturated window or a GC stall shows up in response
/// time -- and closed-loop for think_us == 0, where generation is gated by
/// window availability and response converges to service time.
struct RunMetrics {
  std::uint64_t requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t read_requests = 0;
  SimTime start_us = 0.0;
  SimTime end_us = 0.0;
  std::uint64_t verify_failures = 0;    ///< token mismatches on reads
  std::uint64_t io_errors = 0;          ///< reads reporting !ok
  double latency_p50_us = 0.0;          ///< request service-time percentiles
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
  double response_p50_us = 0.0;         ///< response-time percentiles
  double response_p99_us = 0.0;
  double response_p999_us = 0.0;
  /// Service-time distribution of this run's requests; mergeable across
  /// cells via Histogram::merge.
  util::Histogram latency_hist = make_latency_histogram();
  /// Response-time (arrival -> completion) distribution of this run.
  util::Histogram response_hist = make_latency_histogram();
  ftl::FtlStats ftl_stats;              ///< the window's FTL counters
  std::uint64_t device_erases = 0;      ///< device erase counter at close
  std::uint64_t erases_during_run = 0;  ///< erases in the window
  /// Host data rate (reads + writes) over the window, MB/s. The paper's
  /// "normalized IOPS" compares runs of equal host data volume, so this is
  /// the quantity its Figs. 2(a)/8(a) normalize.
  double host_mb_per_sec = 0.0;
  double overall_waf = 1.0;        ///< flash program bytes / host bytes
  double small_request_waf = 1.0;  ///< paper Table 1's request WAF
  /// Device busy-time utilization over the window: per-chip (array +
  /// transfer occupancy) and per-channel (transfer occupancy) busy time
  /// divided by elapsed simulated time. Shows shard balance and device
  /// idle headroom without a journal pass. Sharded runs aggregate across
  /// every shard's chips/channels in shard-index order.
  std::uint32_t chips = 0;
  std::uint32_t channels = 0;
  double chip_util_min = 0.0;
  double chip_util_mean = 0.0;
  double chip_util_max = 0.0;
  double channel_util_min = 0.0;
  double channel_util_mean = 0.0;
  double channel_util_max = 0.0;

  /// Sets the six percentile fields from the two histograms.
  void fill_percentiles() {
    set_percentiles(latency_hist, latency_p50_us, latency_p99_us,
                    latency_p999_us);
    set_percentiles(response_hist, response_p50_us, response_p99_us,
                    response_p999_us);
  }
  /// Sets host_mb_per_sec and both WAFs from ftl_stats and the span.
  void fill_rates(const nand::Geometry& geo);

  SimTime elapsed_us() const { return end_us - start_us; }
  double iops() const {
    const double secs = sim_time::to_seconds(elapsed_us());
    return secs > 0.0 ? static_cast<double>(requests) / secs : 0.0;
  }
};

/// The driver's and device's cumulative state where a measured window
/// opens (Driver::mark_window), histograms copied whole;
/// Driver::close_window reports the difference, so no window counts
/// preconditioning or warmup.
struct WindowMark {
  SimTime start_us = 0.0;
  std::uint64_t verify_failures = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t erases = 0;
  ftl::FtlStats ftl_stats;
  std::vector<SimTime> chip_busy_us;
  std::vector<SimTime> channel_busy_us;
  util::Histogram latency_hist = make_latency_histogram();
  util::Histogram response_hist = make_latency_histogram();
};

/// Full timing of one request through the queue-depth pipeline.
struct Completion {
  SimTime arrival = 0.0;  ///< host generated the request (think-time clock)
  SimTime issue = 0.0;    ///< entered the device (a window slot was free)
  SimTime done = 0.0;     ///< simulated completion
  bool ok = true;
};

class Driver {
 public:
  /// The driver's shadow state sizes itself to ftl.logical_sectors().
  ///
  /// `queue_depth` models host-side concurrency: up to that many requests
  /// are in flight, so independent chips/channels overlap (the paper's
  /// platform runs multi-threaded benchmarks against 8 channels). The
  /// next request issues when the oldest outstanding slot completes.
  Driver(ftl::Ftl& ftl, nand::NandDevice& dev, std::uint32_t queue_depth = 32);

  /// Runs the stream starting at the current clock; returns metrics for
  /// this run only.
  /// @param verify        check every read's tokens against the shadow map
  /// @param max_requests  stop after this many requests (0 = to exhaustion);
  ///                      lets callers split one stream into warmup+measure
  /// @param final_sample  flush the final partial sampling window at the
  ///                      end of the run. Pass false when stopping early to
  ///                      take a snapshot: the uninterrupted run would not
  ///                      have closed a window here, and restore-equivalence
  ///                      requires the resumed run's sample series to match
  ///                      it byte for byte.
  RunMetrics run(workload::RequestSource& source, bool verify = true,
                 std::uint64_t max_requests = 0, bool final_sample = true);

  /// Opens a measured window at the current clock. Every measured window
  /// closes through close_window: run(), the tenant mux's run and a run
  /// split around a checkpoint (one mark spanning both legs).
  WindowMark mark_window() const;
  /// Closes the window `mark` opened at the current clock: fills
  /// `metrics` with its span, verify failures, io errors, erases, latency
  /// histograms, FTL stats, rates and utilization, plus the device's
  /// cumulative erase count. The request counts are left alone: they
  /// belong to the loop that fed the requests.
  void close_window(const WindowMark& mark, RunMetrics& metrics) const;

  /// Issues one request; advances the internal clock to its completion.
  ftl::IoResult submit(const workload::Request& request, bool verify = true);

  /// Submission with an externally supplied arrival clock: used by the
  /// multi-tenant mux, whose tenants each carry their own arrival time.
  /// The request issues no earlier than max(arrival, earliest_issue) --
  /// `earliest_issue` carries per-tenant window constraints -- and no
  /// earlier than the device window allows. Does NOT advance the driver's
  /// own arrival clock; think_us is the caller's to apply.
  Completion submit_at(const workload::Request& request, SimTime arrival,
                       SimTime earliest_issue, bool verify = true);

  /// Drains the FTL's write buffer. Routed through the submit path as a
  /// kFlush request, so explicit flushes and in-stream kFlush requests
  /// produce identical clocks, in-flight accounting and latency samples.
  void flush();

  /// Closes the health stream's final (partial) epoch at the current
  /// clock, if one is open -- so endpoint mode (interval 0) gets exactly
  /// attach + one epoch per run. Callers invoke it AFTER a run, outside
  /// any wall-clock window: the end-of-run snapshot is teardown I/O.
  /// No-op without an attached health monitor or when an epoch was
  /// already cut at now().
  void close_health_epoch();

  SimTime now() const { return now_; }
  /// Advances the clock (idle time); never moves backwards.
  void advance_to(SimTime t);

  /// Earliest time the device window can accept another request: the
  /// oldest in-flight completion when the window is full, the current
  /// clock otherwise. Scheduling hint for the tenant mux (does not pop).
  SimTime next_slot_hint() const {
    return inflight_.size() >= queue_depth_ ? inflight_.top() : now_;
  }

  std::uint64_t verify_failures() const { return verify_failures_; }

  /// Expected token of a sector's latest version (0 = never written).
  std::uint64_t expected_token(std::uint64_t sector) const;

  /// Service-time distribution (issue -> completion) of all requests
  /// submitted so far.
  const util::Histogram& latency_histogram() const { return latency_; }

  /// Attaches the telemetry facade (nullptr detaches). The driver opens a
  /// span per host request and closes sampling windows on the facade's
  /// TimeSeriesSampler cadence; the final partial window is flushed at the
  /// end of each run(). When the facade carries a HealthMonitor, an
  /// epoch-0 baseline snapshot is committed immediately at attach, epochs
  /// follow the monitor's sim-time cadence, and a closing epoch is taken at
  /// the end of each run().
  ///
  /// With `resume` set, the facade is attached WITHOUT re-baselining: no
  /// sampling-window reset, no epoch-0 health snapshot. Used when restoring
  /// from a snapshot -- the facade's clocks arrive via its own load_state
  /// and the driver's window cursors via Driver::load_state, so the resumed
  /// telemetry streams continue exactly where the saved run left off.
  void set_telemetry(telemetry::Telemetry* telemetry, bool resume = false);

  /// Snapshot support (see core/snapshot.h). Must be called between
  /// requests: the in-flight window, shadow maps, cumulative histograms and
  /// telemetry sampling cursors are archived; a restored driver continues
  /// bit-identically. Restore order: construct, load_state, then
  /// set_telemetry(tel, true), which reads the restored counters.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  /// One bounds check per request: rejects [sector, sector+count) ranges
  /// outside the logical space so the per-sector shadow loops can index
  /// unchecked.
  void check_sector_range(std::uint64_t sector, std::uint32_t count) const;
  /// expected_token without the range check (caller guarantees bounds).
  std::uint64_t expected_token_unchecked(std::uint64_t sector) const;
  /// Issue time for the next request under the queue-depth window; the
  /// request cannot issue before `earliest`.
  SimTime next_issue_slot(SimTime earliest);
  /// Closes the current sampling window if it is due.
  void maybe_sample();
  /// Unconditionally closes the current sampling window at now().
  void take_sample();
  /// Commits a health epoch if one is due.
  void maybe_health();
  /// Unconditionally snapshots device + FTL state into a health epoch.
  void take_health();
  /// The cumulative counters health windows are differences of: the
  /// facade's per-cause programs/erases and the FTL's sector counts.
  telemetry::HealthTotals health_totals() const;

  ftl::Ftl& ftl_;
  nand::NandDevice& dev_;
  std::uint32_t queue_depth_;
  SimTime now_ = 0.0;      ///< latest completion seen (clock high-water mark)
  SimTime arrival_ = 0.0;  ///< host-side arrival time (think-time driven)
  /// Completion times of in-flight requests (min-heap, size <= QD).
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<>>
      inflight_;
  util::HugeVector<std::uint32_t> shadow_version_;
  /// Sectors whose latest state is "discarded" (set by whole-page trims,
  /// cleared by rewrites) -- mirrors the FTLs' page-aligned trim semantics.
  std::vector<bool> shadow_trimmed_;
  std::uint64_t verify_failures_ = 0;
  std::uint64_t io_errors_ = 0;
  /// Service time (issue -> done) of every request so far.
  util::Histogram latency_ = make_latency_histogram();
  /// Response time (arrival -> done); same shape as latency_.
  util::Histogram response_ = make_latency_histogram();
  std::vector<std::uint64_t> read_tokens_;  // scratch
  std::uint64_t requests_submitted_ = 0;

  // Telemetry sampling-window state (counter values at last window close).
  telemetry::Telemetry* tel_ = nullptr;
  ftl::FtlStats tel_last_stats_;
  std::uint64_t tel_last_erases_ = 0;
  std::uint64_t tel_last_requests_ = 0;
  SimTime tel_last_sample_us_ = 0.0;
};

}  // namespace esp::sim
