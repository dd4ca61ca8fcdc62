// Telemetry facade: the one object a simulation run owns.
//
// Bundles the three tentpole pieces behind the `Sink` interface that the
// driver, FTLs and NAND device record into:
//   * a MetricsRegistry of named counters/gauges/histograms,
//   * a TraceRing of per-request op spans,
//   * a TimeSeriesSampler of periodic windowed snapshots.
//
// The facade also owns per-op latency histograms in two flavours: a
// cumulative one registered as "op/<name>/latency_us" (exported with the
// metrics), and a per-window one harvested into each Sample's percentile
// columns then reset.
//
// Recording is only ever reached through a nullable `Sink*` held by the
// instrumented components, so a run without telemetry pays a single
// pointer test per op.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/causes.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/sink.h"
#include "telemetry/trace.h"
#include "util/histogram.h"

namespace esp::telemetry {

class Journal;
class Auditor;
class HealthMonitor;
class ForensicsCollector;

struct TelemetryConfig {
  std::size_t trace_capacity = 1 << 16;
  /// Sampling period in simulated microseconds; 0 disables sampling.
  SimTime sample_interval_us = 0.0;
  /// Per-op latency detail: the cumulative + window + per-cause latency
  /// histograms and the trace-ring push. Downstream sinks (journal,
  /// auditor, forensics) and the per-cause op counters are fed either way.
  /// Turn off when the facade exists only to feed a streaming sink, so an
  /// always-on stream does not pay for histograms nobody will read.
  bool op_detail = true;
};

class Telemetry : public Sink {
 public:
  explicit Telemetry(const TelemetryConfig& config = {});

  // --- Sink ---------------------------------------------------------
  MetricsRegistry& registry() override { return registry_; }
  void record_op(const OpEvent& event) override;
  void push_cause(Cause cause, std::uint64_t detail, SimTime at) override;
  void pop_cause() override;
  void record_block(const BlockLifecycleEvent& event) override;

  const MetricsRegistry& registry() const { return registry_; }
  TraceRing& trace() { return trace_; }
  const TraceRing& trace() const { return trace_; }
  TimeSeriesSampler& sampler() { return sampler_; }
  const TimeSeriesSampler& sampler() const { return sampler_; }

  // --- Host-request lifecycle (driver only) -------------------------
  /// Opens a span for a new host request and returns its id; child ops
  /// recorded until end_request() are tagged with it. `arrival` is the
  /// host-side arrival time (defaults to issue when the caller has no
  /// arrival clock) and `tenant` the originating namespace -- both feed
  /// the forensics collector and the queue-wait histograms.
  std::uint32_t begin_request(SimTime issue, SimTime arrival = -1.0,
                              std::uint16_t tenant = 0);
  /// Closes the current request span, emitting the host-lane trace event
  /// and latency sample. `arg0`/`arg1` follow the op's arg schema
  /// (sectors / start sector for reads and writes).
  void end_request(OpKind kind, SimTime issue, SimTime done,
                   std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

  std::uint64_t requests_started() const { return next_request_id_ - 1; }

  // --- Causal attribution -------------------------------------------
  /// Innermost open cause scope (kHost when none is open). Every flash
  /// program/erase recorded through this sink increments exactly one
  /// per-cause bucket, so summing cause_count over all causes reproduces
  /// the device's program/erase counters bit-exactly (since attach).
  Cause current_cause() const {
    return cause_stack_.empty() ? Cause::kHost : cause_stack_.back().cause;
  }
  /// Per-cause flash-op count; `kind` must be kProgFull, kProgSub or
  /// kErase (anything else returns 0).
  std::uint64_t cause_count(Cause cause, OpKind kind) const;

  /// Attaches a Journal / Auditor / HealthMonitor downstream sink
  /// (nullptr detaches). All must outlive their attachment; detach before
  /// destroying them.
  void set_journal(Journal* journal) {
    journal_ = journal;
    recompute_op_mask();
  }
  void set_auditor(Auditor* auditor) {
    auditor_ = auditor;
    recompute_op_mask();
  }
  /// The health monitor widens no op mask: the facade feeds it only the
  /// GC-victim erases it already counts.
  void set_health(HealthMonitor* health) { health_ = health; }
  /// Attaches a latency-forensics collector: the facade feeds it request
  /// begin/end plus every flash-lane op (with cause + chain), and binds
  /// its phase histograms into this registry.
  void set_forensics(ForensicsCollector* forensics);
  Journal* journal() const { return journal_; }
  Auditor* auditor() const { return auditor_; }
  HealthMonitor* health() const { return health_; }
  ForensicsCollector* forensics() const { return forensics_; }

  // --- Sampler integration (driver only) ----------------------------
  /// Fills `sample`'s per-op and merged latency percentiles from the
  /// current window histograms, then resets the windows.
  void harvest_window(Sample& sample);

  // --- Snapshot support (core/snapshot.h) ---------------------------
  /// Checkpoints are taken between host requests with no open cause
  /// scope, so the per-request scratch is idle by construction (save
  /// throws otherwise). Archives the registry (cumulative, cause and
  /// downstream-bound histograms live there), trace ring, sampler,
  /// request-id cursor, per-window histograms and cause counters.
  /// Downstream sinks (journal/health/forensics/auditor) archive their
  /// own state; restore them before or after this call, order-free.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  util::Histogram& window(OpKind kind) {
    return window_[static_cast<std::size_t>(kind)];
  }

  /// Recomputes the Sink op-interest mask from the attached consumers.
  void recompute_op_mask();

  MetricsRegistry registry_;
  TraceRing trace_;
  TimeSeriesSampler sampler_;
  bool op_detail_ = true;
  std::uint32_t next_request_id_ = 1;
  std::uint32_t current_request_ = 0;
  SimTime current_arrival_ = 0.0;  ///< arrival of the open request
  /// Registry-owned cumulative per-op latency histograms, indexed by kind.
  util::Histogram* cumulative_[kOpKindCount] = {};
  /// Queue-wait (issue - arrival) histograms for the four host-lane kinds,
  /// registered as "op/<kind>/wait_us" (op_detail only).
  util::Histogram* wait_[4] = {};
  /// Per-sampling-window latency histograms, reset on harvest.
  std::vector<util::Histogram> window_;

  // Causal attribution state. The counters are bound into the registry as
  // "cause/<name>/prog_full|prog_sub|erase"; the histograms are owned by
  // the registry as "cause/<name>/latency_us".
  std::vector<CauseFrame> cause_stack_;
  std::uint64_t cause_progs_full_[kCauseCount] = {};
  std::uint64_t cause_progs_sub_[kCauseCount] = {};
  std::uint64_t cause_erases_[kCauseCount] = {};
  util::Histogram* cause_latency_[kCauseCount] = {};
  Journal* journal_ = nullptr;
  Auditor* auditor_ = nullptr;
  HealthMonitor* health_ = nullptr;
  ForensicsCollector* forensics_ = nullptr;
};

}  // namespace esp::telemetry
