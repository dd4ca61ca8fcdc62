#include "sim/driver.h"

#include <algorithm>
#include <stdexcept>

#include "ftl/types.h"
#include "telemetry/health.h"
#include "telemetry/telemetry.h"
#include "util/logger.h"

namespace esp::sim {
namespace {

telemetry::OpKind host_op_kind(workload::Request::Type type) {
  switch (type) {
    case workload::Request::Type::kWrite: return telemetry::OpKind::kHostWrite;
    case workload::Request::Type::kRead: return telemetry::OpKind::kHostRead;
    case workload::Request::Type::kTrim: return telemetry::OpKind::kHostTrim;
    case workload::Request::Type::kFlush: break;
  }
  return telemetry::OpKind::kHostFlush;
}

}  // namespace

Driver::Driver(ftl::Ftl& ftl, nand::NandDevice& dev,
               std::uint32_t queue_depth)
    : ftl_(ftl),
      dev_(dev),
      queue_depth_(queue_depth == 0 ? 1 : queue_depth),
      shadow_version_(ftl.logical_sectors(), 0),
      shadow_trimmed_(ftl.logical_sectors(), false) {
  // Pre-size the hot-path scratch so steady-state submission never
  // reallocates: the in-flight window tops out at queue_depth slots, and
  // the read-token buffer at the largest multi-page read a workload
  // issues (16 pages is beyond every generator/trace in the tree).
  std::vector<SimTime> slots;
  slots.reserve(queue_depth_);
  inflight_ = std::priority_queue<SimTime, std::vector<SimTime>,
                                  std::greater<>>(std::greater<>{},
                                                  std::move(slots));
  read_tokens_.reserve(16ull * dev.geometry().subpages_per_page);
}

SimTime Driver::next_issue_slot(SimTime earliest) {
  if (inflight_.size() < queue_depth_) return earliest;
  const SimTime slot = inflight_.top();
  inflight_.pop();
  return std::max(earliest, slot);
}

void Driver::check_sector_range(std::uint64_t sector,
                                std::uint32_t count) const {
  const std::uint64_t sectors = shadow_version_.size();
  if (sector >= sectors || count > sectors - sector)
    throw std::out_of_range("Driver: sector range outside logical space");
}

std::uint64_t Driver::expected_token_unchecked(std::uint64_t sector) const {
  if (shadow_trimmed_[sector]) return 0;
  const std::uint32_t version = shadow_version_[sector];
  return version == 0 ? 0 : ftl::make_token(sector, version);
}

std::uint64_t Driver::expected_token(std::uint64_t sector) const {
  check_sector_range(sector, 1);
  return expected_token_unchecked(sector);
}

void Driver::advance_to(SimTime t) {
  // Manual idle advance: the host is also idle, so future requests arrive
  // no earlier than t.
  now_ = std::max(now_, t);
  arrival_ = std::max(arrival_, t);
}

ftl::IoResult Driver::submit(const workload::Request& request, bool verify) {
  // Arrival semantics: think_us > 0 paces an OPEN-LOOP arrival process --
  // the request arrives think_us after the previous one regardless of
  // device state, so time spent waiting for a window slot is visible
  // queueing delay. think_us == 0 marks CLOSED-LOOP generation: the host
  // emits the next request the moment it can submit again, so when the
  // window is saturated the arrival clock rides the oldest in-flight
  // completion instead of falling unboundedly behind.
  arrival_ += request.think_us;
  if (request.think_us <= 0.0 && inflight_.size() >= queue_depth_)
    arrival_ = std::max(arrival_, inflight_.top());
  const Completion c = submit_at(request, arrival_, arrival_, verify);
  return {c.done, c.ok};
}

Completion Driver::submit_at(const workload::Request& request, SimTime arrival,
                             SimTime earliest_issue, bool verify) {
  using workload::Request;
  const SimTime issue =
      next_issue_slot(std::max(arrival, earliest_issue));
  if (tel_) tel_->begin_request(issue, arrival, request.tenant);
  ftl::IoResult result{issue, true};
  switch (request.type) {
    case Request::Type::kWrite:
      check_sector_range(request.sector, request.count);
      for (std::uint32_t i = 0; i < request.count; ++i) {
        ++shadow_version_[request.sector + i];
        shadow_trimmed_[request.sector + i] = false;
      }
      result = ftl_.write(request.sector, request.count, request.sync, issue);
      break;
    case Request::Type::kRead: {
      if (verify) check_sector_range(request.sector, request.count);
      result = ftl_.read(request.sector, request.count, issue,
                         verify ? &read_tokens_ : nullptr);
      if (!result.ok) ++io_errors_;
      if (verify) {
        for (std::uint32_t i = 0; i < request.count; ++i) {
          const std::uint64_t want =
              expected_token_unchecked(request.sector + i);
          if (read_tokens_[i] != want) {
            ++verify_failures_;
            ESP_LOG_ERROR(
                "verify failure: sector=%llu got=%llx want=%llx",
                static_cast<unsigned long long>(request.sector + i),
                static_cast<unsigned long long>(read_tokens_[i]),
                static_cast<unsigned long long>(want));
          }
        }
      }
      break;
    }
    case Request::Type::kTrim: {
      check_sector_range(request.sector, request.count);
      ftl_.trim(request.sector, request.count);
      // Mirror the Ftl::trim contract: only whole logical pages inside the
      // range are discarded; partial edges keep their latest data.
      const std::uint32_t subs = dev_.geometry().subpages_per_page;
      const std::uint64_t first_lpn = (request.sector + subs - 1) / subs;
      const std::uint64_t end_lpn = (request.sector + request.count) / subs;
      for (std::uint64_t lpn = first_lpn; lpn < end_lpn; ++lpn)
        for (std::uint32_t i = 0; i < subs; ++i)
          shadow_trimmed_[lpn * subs + i] = true;
      break;
    }
    case Request::Type::kFlush:
      result = ftl_.flush(issue);
      break;
  }
  latency_.add(result.done - issue);
  response_.add(result.done - arrival);
  inflight_.push(result.done);
  now_ = std::max(now_, result.done);
  now_ = std::max(now_, ftl_.tick(now_));
  ++requests_submitted_;
  if (tel_) {
    tel_->end_request(host_op_kind(request.type), issue, result.done,
                      request.count, request.sector);
    maybe_sample();
    maybe_health();
  }
  return {arrival, issue, result.done, result.ok};
}

void Driver::flush() {
  submit(workload::Request{workload::Request::Type::kFlush, 0, 0,
                           /*sync=*/false, /*think_us=*/0.0},
         /*verify=*/false);
}

RunMetrics Driver::run(workload::RequestSource& source, bool verify,
                       std::uint64_t max_requests, bool final_sample) {
  const WindowMark mark = mark_window();
  RunMetrics metrics;
  while (max_requests == 0 || metrics.requests < max_requests) {
    const auto request = source.next();
    if (!request) break;
    ++metrics.requests;
    if (request->type == workload::Request::Type::kWrite)
      ++metrics.write_requests;
    else if (request->type == workload::Request::Type::kRead)
      ++metrics.read_requests;
    submit(*request, verify);
  }

  // Flush the final (partial) sampling window so short runs still produce
  // a closing snapshot; guarded so zero-length windows are not pushed.
  // The health stream's final epoch is NOT closed here: the harness calls
  // close_health_epoch() explicitly, outside its wall-clock measurement,
  // because the end-of-run snapshot is teardown I/O, not steady-state work.
  if (final_sample && tel_ && tel_->sampler().enabled() &&
      now_ > tel_last_sample_us_)
    take_sample();

  close_window(mark, metrics);
  return metrics;
}

WindowMark Driver::mark_window() const {
  const nand::Geometry& geo = dev_.geometry();
  WindowMark mark{now_, verify_failures_, io_errors_, dev_.counters().erases,
                  ftl_.stats(), std::vector<SimTime>(geo.total_chips()),
                  std::vector<SimTime>(geo.channels), latency_, response_};
  for (std::uint32_t c = 0; c < geo.total_chips(); ++c)
    mark.chip_busy_us[c] = dev_.chip_busy_us(c);
  for (std::uint32_t c = 0; c < geo.channels; ++c)
    mark.channel_busy_us[c] = dev_.channel_busy_us(c);
  return mark;
}

void Driver::close_window(const WindowMark& mark, RunMetrics& metrics) const {
  const nand::Geometry& geo = dev_.geometry();
  metrics.start_us = mark.start_us;
  metrics.end_us = now_;
  metrics.latency_hist = latency_.delta_since(mark.latency_hist);
  metrics.response_hist = response_.delta_since(mark.response_hist);
  metrics.fill_percentiles();
  metrics.verify_failures = verify_failures_ - mark.verify_failures;
  metrics.io_errors = io_errors_ - mark.io_errors;
  metrics.ftl_stats = ftl::stats_delta(ftl_.stats(), mark.ftl_stats);
  metrics.device_erases = dev_.counters().erases;
  metrics.erases_during_run = metrics.device_erases - mark.erases;
  metrics.fill_rates(geo);

  // Utilization: each unit's busy-time delta over the window's span.
  const SimTime elapsed_us = metrics.elapsed_us();
  const auto util = [&](const std::vector<SimTime>& before,
                        SimTime (nand::NandDevice::*busy)(std::uint32_t)
                            const,
                        double& lo, double& mean, double& hi) {
    lo = mean = hi = 0.0;
    if (elapsed_us <= 0.0) return;
    double sum = 0.0;
    for (std::uint32_t c = 0; c < before.size(); ++c) {
      const double u = ((dev_.*busy)(c) - before[c]) / elapsed_us;
      sum += u;
      if (c == 0 || u < lo) lo = u;
      if (c == 0 || u > hi) hi = u;
    }
    mean = sum / static_cast<double>(before.size());
  };
  metrics.chips = geo.total_chips();
  metrics.channels = geo.channels;
  util(mark.chip_busy_us, &nand::NandDevice::chip_busy_us,
       metrics.chip_util_min, metrics.chip_util_mean, metrics.chip_util_max);
  util(mark.channel_busy_us, &nand::NandDevice::channel_busy_us,
       metrics.channel_util_min, metrics.channel_util_mean,
       metrics.channel_util_max);
}

void RunMetrics::fill_rates(const nand::Geometry& geo) {
  const double host_bytes = static_cast<double>(
      (ftl_stats.host_write_sectors + ftl_stats.host_read_sectors) *
      geo.subpage_bytes());
  const double secs = sim_time::to_seconds(elapsed_us());
  host_mb_per_sec = secs > 0.0 ? host_bytes / (1024.0 * 1024.0) / secs : 0.0;
  overall_waf = ftl_stats.overall_waf(geo.page_bytes, geo.subpage_bytes());
  small_request_waf = ftl_stats.avg_small_request_waf();
}

void Driver::set_telemetry(telemetry::Telemetry* telemetry, bool resume) {
  tel_ = telemetry;
  if (!tel_) return;
  if (resume) {
    // Clocks + cursors arrive via load_state. A health stream the snapshot
    // did not carry (no epoch yet) counts its first window from here.
    telemetry::HealthMonitor* hm = tel_->health();
    if (hm && hm->epochs_written() == 0) hm->rebase(health_totals());
    return;
  }
  tel_last_stats_ = ftl_.stats();
  tel_last_erases_ = dev_.counters().erases;
  tel_last_requests_ = requests_submitted_;
  tel_last_sample_us_ = now_;
  tel_->sampler().start(now_);
  if (telemetry::HealthMonitor* hm = tel_->health()) {
    // Epoch 0 at attach: the absolute baseline (preconditioning wear
    // included) every later delta row builds on.
    hm->start(now_, health_totals());
    take_health();
  }
}

void Driver::maybe_sample() {
  if (tel_->sampler().due(now_)) take_sample();
}

void Driver::close_health_epoch() {
  if (tel_ && tel_->health() && now_ > tel_->health()->last_epoch_us())
    take_health();
}

void Driver::maybe_health() {
  telemetry::HealthMonitor* hm = tel_->health();
  if (hm && hm->due(now_)) take_health();
}

void Driver::take_health() {
  telemetry::HealthMonitor* hm = tel_->health();
  const std::span<telemetry::BlockHealth> rows = hm->begin_epoch();
  dev_.fill_block_health(rows);
  ftl_.collect_health(rows);
  hm->commit_epoch(now_, ftl_.free_blocks(), health_totals());
}

telemetry::HealthTotals Driver::health_totals() const {
  telemetry::HealthTotals t;
  for (std::size_t c = 0; c < telemetry::kCauseCount; ++c) {
    const auto cause = static_cast<telemetry::Cause>(c);
    t.prog_full[c] = tel_->cause_count(cause, telemetry::OpKind::kProgFull);
    t.prog_sub[c] = tel_->cause_count(cause, telemetry::OpKind::kProgSub);
    t.erases[c] = tel_->cause_count(cause, telemetry::OpKind::kErase);
  }
  // The driver is Ftl::write's only caller, so host_write_sectors counts
  // exactly the sectors of the host writes it issued.
  t.host_sectors = ftl_.stats().host_write_sectors;
  t.retention_evict_sectors = ftl_.stats().retention_evictions;
  return t;
}

void Driver::save_state(util::StateWriter& w) const {
  w.tag("DRVR");
  w.f64(now_);
  w.f64(arrival_);
  w.pod_vec(util::heap_container(inflight_));
  w.pod_vec(shadow_version_);
  w.bool_vec(shadow_trimmed_);
  w.u64(verify_failures_);
  w.u64(io_errors_);
  latency_.save_state(w);
  response_.save_state(w);
  w.u64(requests_submitted_);
  ftl::save_stats(w, tel_last_stats_);
  w.u64(tel_last_erases_);
  w.u64(tel_last_requests_);
  w.f64(tel_last_sample_us_);
}

void Driver::load_state(util::StateReader& r) {
  r.tag("DRVR");
  now_ = r.f64();
  arrival_ = r.f64();
  r.pod_vec(util::heap_container(inflight_));
  r.pod_vec(shadow_version_);
  r.bool_vec(shadow_trimmed_);
  if (shadow_version_.size() != ftl_.logical_sectors() ||
      shadow_trimmed_.size() != ftl_.logical_sectors())
    throw std::runtime_error("Driver::load_state: logical space mismatch");
  verify_failures_ = r.u64();
  io_errors_ = r.u64();
  latency_.load_state(r);
  response_.load_state(r);
  requests_submitted_ = r.u64();
  ftl::load_stats(r, tel_last_stats_);
  tel_last_erases_ = r.u64();
  tel_last_requests_ = r.u64();
  tel_last_sample_us_ = r.f64();
}

void Driver::take_sample() {
  const ftl::FtlStats cur = ftl_.stats();
  const ftl::FtlStats d = ftl::stats_delta(cur, tel_last_stats_);
  const nand::Geometry& geo = dev_.geometry();

  telemetry::Sample s;
  s.sim_time_s = sim_time::to_seconds(now_);
  s.requests = requests_submitted_ - tel_last_requests_;
  const double window_s = sim_time::to_seconds(now_ - tel_last_sample_us_);
  s.iops = window_s > 0.0 ? static_cast<double>(s.requests) / window_s : 0.0;
  s.request_waf = d.avg_small_request_waf();
  s.overall_waf = d.overall_waf(geo.page_bytes, geo.subpage_bytes());
  s.gc_invocations = d.gc_invocations;
  s.gc_copy_sectors = d.gc_copy_sectors;
  s.erases = dev_.counters().erases - tel_last_erases_;
  s.prog_full = d.flash_prog_full;
  s.prog_sub = d.flash_prog_sub;
  s.forward_migrations = d.forward_migrations;
  s.retention_evictions = d.retention_evictions;
  s.rmw_ops = d.rmw_ops;
  // Subpage/log-region occupancy, published by hybrid FTLs under their
  // name scope (0 for FTLs without a region).
  s.region_blocks =
      tel_->registry().gauge_value(ftl_.name() + "/region_blocks");
  s.region_valid_sectors =
      tel_->registry().gauge_value(ftl_.name() + "/region_valid_sectors");
  tel_->harvest_window(s);
  tel_->sampler().push(s, now_);

  tel_last_stats_ = cur;
  tel_last_erases_ = dev_.counters().erases;
  tel_last_requests_ = requests_submitted_;
  tel_last_sample_us_ = now_;
}

}  // namespace esp::sim
