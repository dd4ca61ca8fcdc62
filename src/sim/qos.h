// QoS scheduling policies for the multi-tenant namespace mux.
//
// The scheduler answers one question, repeatedly: a device slot can accept
// another request -- WHICH tenant's pending request goes next? Three
// policies:
//
//   * kFifo          -- arrival order across all tenants: whoever's pending
//                       request arrived first. No isolation: a tenant that
//                       keeps a deep backlog monopolizes the device and
//                       everyone else queues behind it.
//   * kRoundRobin    -- strict request-count alternation over tenants with
//                       work. Equal request rates regardless of request
//                       size or weight.
//   * kWeightedShare -- start-time fair queueing (SFQ): each tenant carries
//                       a virtual-time tag advanced by cost/weight per
//                       served request; the eligible tenant with the
//                       smallest tag goes next. A tenant that was idle
//                       re-enters at the current virtual time (no hoarded
//                       credit), so the policy is work-conserving and a
//                       low-rate latency-sensitive tenant with a high
//                       weight preempts a backlogged bulk writer at every
//                       pick point.
//
// All policies are deterministic: ties break toward the lowest tenant
// index, and no decision depends on host-side state (see docs/QOS.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/sim_time.h"

namespace esp::sim {

enum class QosPolicy {
  kFifo,
  kRoundRobin,
  kWeightedShare,
};

std::string qos_policy_name(QosPolicy policy);
std::optional<QosPolicy> parse_qos_policy(const std::string& name);

/// Scheduler view of one tenant lane at a pick point.
struct LaneState {
  bool pending = false;   ///< lane has a request waiting to be scheduled
  SimTime arrival = 0.0;  ///< pending request's host arrival time
  SimTime ready = 0.0;    ///< earliest issue: max(arrival, tenant window)
  std::uint32_t cost = 1;  ///< request cost in sectors (>= 1)
  double weight = 1.0;     ///< weighted-share allocation
};

class QosScheduler {
 public:
  QosScheduler(QosPolicy policy, std::size_t lanes);

  /// Picks the lane to serve next. `horizon` is the earliest time the
  /// device can accept work; lanes ready at or before it are *eligible*
  /// (their requests have arrived by the time a slot frees). When no lane
  /// is eligible the earliest-ready lane is served -- the device idles
  /// until its arrival, so the mux never deadlocks on a paced tenant.
  /// At least one lane must be pending.
  std::size_t pick(const std::vector<LaneState>& lanes, SimTime horizon);

  /// Charges the lane just served; must follow every pick() with that
  /// lane's state. Advances round-robin and virtual-time bookkeeping.
  void charge(std::size_t lane, const LaneState& state);

 private:
  QosPolicy policy_;
  std::size_t cursor_ = 0;      ///< round-robin: last lane served
  double virtual_time_ = 0.0;   ///< weighted share: SFQ virtual clock
  std::vector<double> finish_;  ///< weighted share: per-lane finish tag
};

}  // namespace esp::sim
