// Sidecar observers of one run: the causal-attribution journal, the
// invariant auditor, the device-health monitor and the latency-forensics
// collector an ExperimentSpec requests, with one lifecycle -- open the
// streams (fresh, or resumed at a checkpoint's offsets), attach the sinks
// to a telemetry facade, hand them to snapshots, write the trailers and
// detach. run_experiment and the replay bench's overhead duel both build
// their observers here.
#pragma once

#include <fstream>
#include <optional>
#include <string>

#include "core/experiment.h"
#include "core/snapshot.h"
#include "telemetry/auditor.h"
#include "telemetry/forensics.h"
#include "telemetry/health.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"

namespace esp::core {

/// The facade a run owns when only streaming observers are requested: a
/// tiny trace ring and no per-op latency detail, so an always-on stream
/// does not pay for histograms nobody reads.
telemetry::TelemetryConfig lean_telemetry_config();

class Observers {
 public:
  /// Opens the sidecars `spec.observe` requests and attaches their sinks
  /// to `tel` in registration order: journal, auditor, health, forensics.
  /// `resume` is the META of a snapshot whose stream this run continues
  /// (null otherwise): each sidecar it carries is truncated to its
  /// checkpoint offset and appended to, its sink in resume mode (no hdr
  /// line).
  Observers(const ExperimentSpec& spec, telemetry::Telemetry& tel,
            const SnapshotMeta* resume = nullptr);
  /// Detaches every sink from the facade.
  ~Observers();
  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;

  /// Sinks a restore loads: the auditor (its model mirrors device state,
  /// not stream position) and every resumed stream.
  SnapshotSinks restore_sinks();
  /// Flushes every sidecar, records its byte offset in `meta` and returns
  /// every sink, for a checkpoint.
  SnapshotSinks checkpoint(SnapshotMeta& meta);
  /// Writes the stream trailers, fills `result.sidecars` (and the
  /// forensics tenant blame) and detaches.
  void finish(RunResult& result);

 private:
  void detach();

  telemetry::Telemetry& tel_;
  std::ofstream journal_os_;
  std::ofstream health_os_;
  std::ofstream forensics_os_;
  std::optional<telemetry::Journal> journal_;
  std::optional<telemetry::Auditor> auditor_;
  std::optional<telemetry::HealthMonitor> health_;
  std::optional<telemetry::ForensicsCollector> forensics_;
  bool journal_resumed_ = false;
  bool health_resumed_ = false;
  bool forensics_resumed_ = false;
};

}  // namespace esp::core
