#include "sim/tenant_mux.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "telemetry/metrics.h"

namespace esp::sim {

std::vector<TenantNamespace> partition_namespaces(
    std::uint64_t logical_sectors, std::size_t tenants,
    std::uint32_t sectors_per_page) {
  if (tenants == 0)
    throw std::invalid_argument("partition_namespaces: zero tenants");
  if (sectors_per_page == 0)
    throw std::invalid_argument("partition_namespaces: zero page size");
  const std::uint64_t pages = logical_sectors / sectors_per_page;
  const std::uint64_t pages_per_tenant = pages / tenants;
  if (pages_per_tenant == 0)
    throw std::invalid_argument(
        "partition_namespaces: fewer logical pages than tenants");
  std::vector<TenantNamespace> out(tenants);
  const std::uint64_t slice = pages_per_tenant * sectors_per_page;
  for (std::size_t i = 0; i < tenants; ++i) {
    out[i].base = static_cast<std::uint64_t>(i) * slice;
    out[i].sectors = slice;
  }
  return out;
}

TenantMux::TenantMux(Driver& driver, QosPolicy policy, std::vector<Lane> lanes)
    : driver_(driver), scheduler_(policy, lanes.size()) {
  if (lanes.empty())
    throw std::invalid_argument("TenantMux: at least one lane required");
  lanes_.reserve(lanes.size());
  for (Lane& lane : lanes) {
    if (!lane.source)
      throw std::invalid_argument("TenantMux: lane without a request source");
    if (lane.config.queue_depth == 0) lane.config.queue_depth = 1;
    LaneRt rt;
    rt.fixed = std::move(lane);
    // Tenants arrive no earlier than the clock at mux construction, so a
    // preconditioned device does not give them retroactive arrival times.
    rt.arrival = driver_.now();
    lanes_.push_back(std::move(rt));
  }
  states_.resize(lanes_.size());
}

void TenantMux::set_registry(telemetry::MetricsRegistry* registry) {
  for (LaneRt& lane : lanes_) {
    if (!registry) {
      lane.c_requests = lane.c_write_sectors = lane.c_read_sectors = nullptr;
      continue;
    }
    const std::string prefix = "tenant/" + lane.fixed.config.name + "/";
    lane.c_requests = &registry->counter(prefix + "requests");
    lane.c_write_sectors = &registry->counter(prefix + "host_write_sectors");
    lane.c_read_sectors = &registry->counter(prefix + "host_read_sectors");
  }
}

void TenantMux::refill(LaneRt& lane) {
  if (lane.has_pending || lane.exhausted) return;
  const auto request = lane.fixed.source->next();
  if (!request) {
    lane.exhausted = true;
    return;
  }
  lane.pending = *request;
  // Same arrival semantics as Driver::submit: think_us > 0 paces an
  // open-loop arrival; think_us == 0 is closed-loop generation gated by
  // this tenant's OWN window (other tenants' completions never advance
  // this lane's arrival clock).
  lane.arrival += request->think_us;
  if (request->think_us <= 0.0 &&
      lane.inflight.size() >= lane.fixed.config.queue_depth)
    lane.arrival = std::max(lane.arrival, lane.inflight.top());
  lane.has_pending = true;
}

SimTime TenantMux::lane_ready(const LaneRt& lane) const {
  SimTime ready = lane.arrival;
  if (lane.inflight.size() >= lane.fixed.config.queue_depth)
    ready = std::max(ready, lane.inflight.top());
  return ready;
}

MuxRunMetrics TenantMux::run(bool verify, std::uint64_t max_requests) {
  const WindowMark mark = driver_.mark_window();
  MuxRunMetrics out;
  out.tenants.resize(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    out.tenants[i].name = lanes_[i].fixed.config.name;

  while (max_requests == 0 || out.window.requests < max_requests) {
    bool any_pending = false;
    for (LaneRt& lane : lanes_) {
      refill(lane);
      any_pending |= lane.has_pending;
    }
    if (!any_pending) break;

    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const LaneRt& lane = lanes_[i];
      states_[i].pending = lane.has_pending;
      states_[i].arrival = lane.arrival;
      states_[i].ready = lane.has_pending ? lane_ready(lane) : 0.0;
      states_[i].cost = lane.has_pending && lane.pending.count > 0
                            ? lane.pending.count
                            : 1;
      states_[i].weight = lane.fixed.config.weight;
    }
    const std::size_t idx = scheduler_.pick(states_, driver_.next_slot_hint());
    LaneRt& lane = lanes_[idx];
    TenantMetrics& tm = out.tenants[idx];

    // Consume this tenant's own window slot (mirrors the driver's device
    // window: the oldest in-flight completion frees the slot).
    SimTime window_slot = lane.arrival;
    if (lane.inflight.size() >= lane.fixed.config.queue_depth) {
      window_slot = std::max(window_slot, lane.inflight.top());
      lane.inflight.pop();
    }

    workload::Request request = lane.pending;
    const TenantNamespace& ns = lane.fixed.ns;
    if (request.type != workload::Request::Type::kFlush &&
        (request.sector >= ns.sectors ||
         request.count > ns.sectors - request.sector)) {
      throw std::out_of_range("TenantMux: request outside tenant namespace");
    }
    request.sector += ns.base;
    request.tenant = static_cast<std::uint16_t>(idx);

    const Completion c =
        driver_.submit_at(request, lane.arrival, window_slot, verify);
    lane.inflight.push(c.done);
    lane.has_pending = false;
    scheduler_.charge(idx, states_[idx]);

    ++out.window.requests;
    ++tm.requests;
    tm.service_hist.add(c.done - c.issue);
    tm.response_hist.add(c.done - c.arrival);
    tm.wait_hist.add(c.issue - c.arrival);
    if (lane.c_requests) lane.c_requests->inc();
    if (request.type == workload::Request::Type::kWrite) {
      ++out.window.write_requests;
      ++tm.write_requests;
      tm.host_write_sectors += request.count;
      if (lane.c_write_sectors) lane.c_write_sectors->inc(request.count);
    } else if (request.type == workload::Request::Type::kRead) {
      ++out.window.read_requests;
      ++tm.read_requests;
      tm.host_read_sectors += request.count;
      if (lane.c_read_sectors) lane.c_read_sectors->inc(request.count);
    }
  }

  driver_.close_window(mark, out.window);
  for (TenantMetrics& tm : out.tenants) tm.fill_percentiles();
  return out;
}

}  // namespace esp::sim
