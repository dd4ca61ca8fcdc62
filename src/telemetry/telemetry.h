// Telemetry facade: the one object a simulation run owns, and the one type
// the driver, FTLs and NAND device record into (through a nullable
// `Telemetry*`, so a run without telemetry pays a single pointer test per
// op).
//
// Bundles three pieces:
//   * a MetricsRegistry of named counters/gauges/histograms,
//   * a TraceRing of per-request op spans,
//   * a TimeSeriesSampler of periodic windowed snapshots.
//
// The facade also owns per-op latency histograms in two flavours: a
// cumulative one registered as "op/<name>/latency_us" (exported with the
// metrics), and a per-window one harvested into each Sample's percentile
// columns then reset.
//
// The per-op path (record_op, cause scopes, request begin/end) is defined
// inline below: its inline part is what every attached facade does for
// every op -- bump the per-cause program/erase counter, hand the op to an
// attached forensics collector. Everything rarer sits in out-of-line
// functions: latency detail, trace, journal and auditor behind one
// branch on a bool derived when they attach; GC-victim counts and journal
// scope lines behind their own null checks. Keeping the inline body this
// small is what lets the compiler inline it at every call site (`nm -C`
// on the instrumented objects shows no out-of-line record_op).
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/causes.h"
#include "telemetry/forensics.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/sink.h"
#include "telemetry/trace.h"
#include "util/histogram.h"

namespace esp::telemetry {

class Journal;
class Auditor;
class HealthMonitor;

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

class Telemetry final {
 public:
  explicit Telemetry(const TelemetryConfig& config = {});

  // --- Recording (instrumented layers) ------------------------------
  /// Registry for attach-time metric registration.
  MetricsRegistry& registry() { return registry_; }
  /// Records one completed operation: per-cause program/erase counts,
  /// the forensics collector, and (detail path) latency histograms, trace
  /// ring, journal and auditor.
  void record_op(const OpEvent& event) {
    const auto c = static_cast<std::size_t>(current_cause());
    switch (event.kind) {
      case OpKind::kProgFull: ++cause_progs_full_[c]; break;
      case OpKind::kProgSub: ++cause_progs_sub_[c]; break;
      case OpKind::kErase:
        ++cause_erases_[c];
        if (health_ && c == static_cast<std::size_t>(Cause::kGcCopy))
          count_gc_victim(event.chip, event.block);
        break;
      default: break;
    }
    // The detail path gets a copy so `event` never has its address taken:
    // the compiler then keeps the caller's temporary in registers and
    // folds the collector's kind checks, instead of storing every event
    // for a call lean facades never make.
    if (detail_) record_detail(OpEvent(event));
    if (forensics_ && current_request_ != 0)
      forensics_->on_op(event, current_cause(), cause_stack_);
  }
  /// Opens/closes a cause scope; flash ops recorded while a scope is open
  /// are attributed to the innermost cause (see causes.h).
  void push_cause(Cause cause, std::uint64_t detail, SimTime at) {
    cause_stack_.push_back(CauseFrame{cause, detail, at});
    if (journal_) journal_scope('B', cause_stack_.back());
  }
  void pop_cause() {
    if (cause_stack_.empty()) return;
    const CauseFrame top = cause_stack_.back();
    cause_stack_.pop_back();
    if (journal_) journal_scope('E', top);
  }
  /// Records one block lifecycle transition (journal and auditor only).
  void record_block(const BlockLifecycleEvent& event);

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
                              std::uint16_t tenant = 0) {
    current_request_ = next_request_id_++;
    current_arrival_ = arrival < 0.0 ? issue : arrival;
    if (forensics_)
      forensics_->begin_request(current_request_, current_arrival_, issue,
                                tenant);
    return current_request_;
  }
  /// Closes the current request span, emitting the host-lane trace event
  /// and latency sample. `arg0`/`arg1` follow the op's arg schema
  /// (sectors / start sector for reads and writes).
  void end_request(OpKind kind, SimTime issue, SimTime done,
                   std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
    // Forensics closes BEFORE the host-lane record so the exemplar sweep
    // never sees the request's own span as a flash segment. Host-lane ops
    // feed no cause counter, so only the detail path records them.
    if (forensics_) forensics_->end_request(kind, done);
    if (detail_) record_host_detail(OpEvent{kind, issue, done, arg0, arg1});
    current_request_ = 0;
  }

  std::uint64_t requests_started() const { return next_request_id_ - 1; }

  // --- Causal attribution -------------------------------------------
  /// Innermost open cause scope (kHost when none is open). Every flash
  /// program/erase recorded through this facade increments exactly one
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
    detail_ = op_detail_ || journal_ || auditor_;
  }
  void set_auditor(Auditor* auditor) {
    auditor_ = auditor;
    detail_ = op_detail_ || journal_ || auditor_;
  }
  /// The facade feeds the health monitor only the GC-victim erases it
  /// already counts.
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
  /// Out-of-line halves of the per-op path: latency histograms + trace
  /// (op_detail), journal and auditor; the host-lane record of
  /// end_request; GC-victim counting; journal scope lines.
  void record_detail(const OpEvent& event);
  void record_host_detail(const OpEvent& event);
  void count_gc_victim(std::uint32_t chip, std::uint32_t block);
  void journal_scope(char phase, const CauseFrame& frame);

  MetricsRegistry registry_;
  TraceRing trace_;
  TimeSeriesSampler sampler_;
  bool op_detail_ = true;
  /// True when record_op has work beyond the counters and forensics:
  /// op_detail, or a journal or auditor attached.
  bool detail_ = true;
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

/// Null-safe RAII cause scope: pushes on construction, pops on
/// destruction. Safe to construct with a null facade (does nothing), which
/// keeps call sites free of `if (tel_)` branches around whole mechanisms.
class CauseScope {
 public:
  CauseScope(Telemetry* tel, Cause cause, std::uint64_t detail, SimTime at)
      : tel_(tel) {
    if (tel_) tel_->push_cause(cause, detail, at);
  }
  ~CauseScope() {
    if (tel_) tel_->pop_cause();
  }
  CauseScope(const CauseScope&) = delete;
  CauseScope& operator=(const CauseScope&) = delete;

 private:
  Telemetry* tel_;
};

}  // namespace esp::telemetry
