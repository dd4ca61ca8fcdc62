#include "ftl/types.h"

#include <cstddef>
#include <iterator>

#include "telemetry/metrics.h"

namespace esp::ftl {

// The counters are the u64 fields ahead of the maint_timer_depth
// bookkeeping, one kStatFields row each. A counter added without a row
// fails here instead of silently missing from deltas and snapshots.
static_assert(offsetof(FtlStats, maint_timer_depth) ==
              sizeof(std::uint64_t) * std::size(kStatFields));

FtlStats stats_delta(const FtlStats& after, const FtlStats& before) {
  FtlStats d;
  for (const StatField& f : kStatFields)
    d.*f.member = after.*f.member - before.*f.member;
  return d;
}

FtlStats stats_sum(const FtlStats& a, const FtlStats& b) {
  FtlStats s;
  for (const StatField& f : kStatFields)
    s.*f.member = a.*f.member + b.*f.member;
  return s;
}

bool same_simulated_stats(const FtlStats& a, const FtlStats& b) {
  for (const StatField& f : kStatFields)
    if (!f.measured && a.*f.member != b.*f.member) return false;
  return true;
}

MaintenanceTimer::MaintenanceTimer(FtlStats& stats, std::uint64_t* calls,
                                   std::uint64_t* ns)
    : stats_(stats), ns_(ns), outer_(stats.maint_timer_depth == 0) {
  ++stats_.maint_timer_depth;
  if (!outer_) return;
  if (calls) ++*calls;
  start_ = std::chrono::steady_clock::now();
}

MaintenanceTimer::~MaintenanceTimer() {
  --stats_.maint_timer_depth;
  if (!outer_ || !ns_) return;
  *ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void save_stats(util::StateWriter& w, const FtlStats& s) {
  w.tag("STAT");
  for (const StatField& f : kStatFields) w.u64(s.*f.member);
}

void load_stats(util::StateReader& r, FtlStats& s) {
  r.tag("STAT");
  for (const StatField& f : kStatFields) s.*f.member = r.u64();
  s.maint_timer_depth = 0;
}

void bind_stats(telemetry::MetricsRegistry& registry, const std::string& scope,
                const FtlStats& stats) {
  for (const StatField& f : kStatFields)
    if (!f.measured)
      registry.bind_counter(scope + "/" + f.name, &(stats.*f.member));
}

}  // namespace esp::ftl
