// Experiment runner: precondition + workload + metrics, one call.
//
// All bench binaries are thin wrappers around this: build an SsdConfig per
// FTL, run the same request stream through each, compare RunResults.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ssd.h"
#include "sim/qos.h"
#include "sim/tenant_mux.h"
#include "telemetry/forensics.h"
#include "workload/synthetic.h"

namespace esp::telemetry {
class JsonWriter;
}

namespace esp::core {

/// The sidecar observers one run attaches (core/observers.h): the one
/// place their settings live. Every binary parses them with parse_flag,
/// a sweep gives each cell for_cell(key), and a sharded run gives each
/// shard for_shard(index). An empty path leaves its stream off.
struct ObserveSpec {
  /// Causal-attribution journal (JSONL) of every flash op, cause scope and
  /// block-lifecycle event (--journal-out).
  std::string journal_path;
  /// Journal admission cap (0 = unlimited); excess events are counted as
  /// truncated rather than written (--journal-max-events).
  std::uint64_t journal_max_events = 0;
  /// Runs the online invariant auditor over the post-precondition window;
  /// violations throw std::logic_error with the offending cause chain.
  /// With a forensics stream, a request whose phase fold fails to
  /// reconcile with its response time throws too (--audit).
  bool audit = false;
  /// Device-health stream (JSONL): per-block delta rows plus a SMART-style
  /// attribute line per epoch (--health-out).
  std::string health_path;
  /// Health epoch period in simulated microseconds; 0 = endpoint epochs
  /// only: attach baseline + end of each run (--health-interval, seconds).
  SimTime health_interval_us = 0.0;
  /// Rated P/E endurance for the health stream's media-wear % and
  /// exhaustion-horizon attributes (--health-rated-pe).
  std::uint32_t health_rated_pe = 3000;
  /// Tail-latency forensics (JSONL): per-window p99/p999 blame rows plus
  /// slowest-N exemplars with full phase breakdowns (--forensics-out).
  std::string forensics_path;
  /// Slowest-N exemplars retained by the forensics stream (--forensics-top).
  std::uint32_t forensics_top = 16;

  /// One-line and per-flag help for usage messages.
  static constexpr const char* kUsage =
      "[--journal-out PATH] [--journal-max-events N] [--audit]\n"
      "          [--health-out PATH] [--health-interval SECONDS] "
      "[--health-rated-pe N]\n"
      "          [--forensics-out PATH] [--forensics-top N]";
  static constexpr const char* kHelp =
      "  --journal-out PATH            stream the causal-attribution journal\n"
      "                                (JSONL; see docs/TELEMETRY.md); in\n"
      "                                sweep mode each cell writes\n"
      "                                PATH with its cell key spliced in\n"
      "  --journal-max-events N        journal admission cap (0 = unlimited)\n"
      "  --audit                       run the online invariant auditor;\n"
      "                                violations abort with the offending\n"
      "                                cause chain\n"
      "  --health-out PATH             stream device-health snapshots (JSONL\n"
      "                                per-block deltas + SMART attributes;\n"
      "                                see docs/HEALTH.md); in sweep mode\n"
      "                                each cell writes PATH with its cell\n"
      "                                key spliced in\n"
      "  --health-interval SECONDS     health epoch period in simulated\n"
      "                                seconds (default 0 = endpoint epochs\n"
      "                                only: attach baseline + run end)\n"
      "  --health-rated-pe N           rated P/E endurance for media-wear %\n"
      "                                and the exhaustion horizon (3000)\n"
      "  --forensics-out PATH          stream tail-latency forensics (JSONL\n"
      "                                blame windows + slowest-N exemplars;\n"
      "                                see docs/FORENSICS.md); in sweep mode\n"
      "                                each cell writes PATH with its cell\n"
      "                                key spliced in\n"
      "  --forensics-top N             slowest-N exemplars retained (16)\n";

  /// True when a journal, the auditor, health or forensics is requested.
  bool any() const;
  /// The request of sweep cell `key`: the key, '/' flattened to '-', is
  /// spliced into every stream path ("j.jsonl" + "fig8/varmail/sub" ->
  /// "j.fig8-varmail-sub.jsonl").
  ObserveSpec for_cell(std::string key) const;
  /// The request of shard `index`: shard_sidecar_path of every stream path
  /// ("j.jsonl" -> "j.shard0.jsonl").
  ObserveSpec for_shard(std::uint32_t index) const;
  /// Consumes the observer flag at argv[i] and its value, advancing `i`.
  /// Returns false, `i` unchanged, when argv[i] is no observer flag.
  /// Throws std::invalid_argument naming the flag on a missing or
  /// malformed value.
  bool parse_flag(int argc, char** argv, int& i);
};

/// The stream paths of an ObserveSpec, in attach order. Sharded runs
/// concatenate each shard's streams back at join (core/shard.h).
inline constexpr std::string ObserveSpec::*kStreamPaths[] = {
    &ObserveSpec::journal_path, &ObserveSpec::health_path,
    &ObserveSpec::forensics_path};

/// What one run's sidecars wrote or dropped; all zero without streams.
/// A sharded run's counts are the sum of its shards'.
struct SidecarCounts {
  /// Trace-ring evictions (0 when no telemetry attached).
  std::uint64_t trace_dropped = 0;
  /// Journal lines written / admission-capped.
  std::uint64_t journal_events = 0;
  std::uint64_t journal_truncated = 0;
  /// Health-stream epochs / total lines written.
  std::uint64_t health_epochs = 0;
  std::uint64_t health_lines = 0;
  /// Forensics stream: requests decomposed / exemplar lines written /
  /// requests that produced no exemplar line (the stream's admission-cap
  /// analogue of journal_truncated).
  std::uint64_t forensics_requests = 0;
  std::uint64_t forensics_exemplars = 0;
  std::uint64_t forensics_truncated = 0;

  SidecarCounts& operator+=(const SidecarCounts& other);
  /// True when a stream wrote or the trace ring dropped: the run manifest
  /// reports the counts only then, so stream-less cells keep their bytes.
  bool reported() const;
  /// Writes the counts as one JSON object.
  void write_json(telemetry::JsonWriter& w) const;
};

/// One experiment's outcome: its measured window (`raw`) plus what the run
/// adds to it.
struct RunResult {
  std::string ftl_name;
  std::uint64_t mapping_bytes = 0;
  /// Stream accounting: what each sidecar wrote or dropped.
  SidecarCounts sidecars;
  /// Per-tenant phase-blame summaries (empty without a forensics stream;
  /// one entry for tenant 0 on single-tenant runs). Sharded runs keep the
  /// per-shard summaries inside shard_results.
  std::vector<telemetry::TenantBlame> tenant_blame;
  /// The measured window: counts, FTL stats, rates, utilization and
  /// latency distributions. A sharded run's is the merge of its shards'.
  sim::RunMetrics raw;
  /// Per-tenant metrics for the measured window (empty on single-tenant
  /// runs). Order matches ExperimentSpec::tenants.
  std::vector<sim::TenantMetrics> tenants;
  /// Per-shard standalone results of a sharded run, in shard-index order
  /// (empty when shards == 1). The merged window's counters equal the
  /// sums over this vector -- the shard-invariance reconciliation tests
  /// pin that.
  std::vector<RunResult> shard_results;
};

/// True, after a FATAL line naming `what` on stderr, when a run returned
/// wrong data (a read's tokens did not match the driver's shadow map) or a
/// read reported an error. Every binary that reports runs exits 1 on it.
bool lost_data(std::uint64_t verify_failures, std::uint64_t io_errors,
               const std::string& what);
inline bool lost_data(const RunResult& r, const std::string& what) {
  return lost_data(r.raw.verify_failures, r.raw.io_errors, what);
}

/// One tenant of a multi-tenant experiment: its own workload stream over
/// its own namespace slice, plus its QoS parameters.
struct TenantSpec {
  std::string name;
  /// Tenant-local workload; sector addresses are namespace-relative.
  /// footprint_sectors == 0 defaults to the preconditioned share of the
  /// tenant's slice; larger values are clamped to the slice.
  workload::SyntheticParams workload;
  double weight = 1.0;            ///< weighted-share allocation
  std::uint32_t queue_depth = 8;  ///< per-tenant in-flight window
};

struct ExperimentSpec {
  SsdConfig ssd;
  workload::SyntheticParams workload;
  /// Multi-tenant mode: when non-empty, `workload` above is ignored and
  /// each tenant drives its own stream over a page-aligned equal slice of
  /// the logical space, scheduled by `qos` (see sim/tenant_mux.h).
  /// warmup_requests and the run budget count requests across all tenants.
  std::vector<TenantSpec> tenants;
  /// Scheduling policy between tenants (multi-tenant mode only).
  sim::QosPolicy qos = sim::QosPolicy::kFifo;
  /// Fraction of logical space filled before measuring. The default
  /// reproduces the paper's methodology: 10 GB of data on the 16-GB
  /// device: 62.5% of physical = 0.78 of the 80% logical space.
  double precondition_fraction = 0.78;
  /// Requests run unmeasured after preconditioning so GC reaches steady
  /// state before the measured window starts.
  std::uint64_t warmup_requests = 0;
  bool verify = true;
  /// Optional telemetry facade, attached after preconditioning so metrics,
  /// traces and time-series samples cover warmup + the measured window but
  /// not the sequential fill. Must outlive the call.
  telemetry::Telemetry* telemetry = nullptr;
  /// Sidecar observers (journal, auditor, health, forensics). Any of them
  /// works with or without an external `telemetry` facade: if none is
  /// supplied, the runner owns a lean private one for the call.
  ObserveSpec observe;

  // --- Intra-cell sharding (core/shard.h; docs/PERFORMANCE.md) ----------
  /// Shards > 1 partitions this cell into `shards` shared-nothing
  /// sub-simulations -- each owns a channel group of the device and a
  /// page-striped slice of the LBA space -- run in parallel and merged
  /// deterministically. Requires single-tenant mode and a channel count
  /// divisible by `shards`. 1 = the unsharded path, bit-identical to
  /// before this knob existed.
  unsigned shards = 1;
  /// Worker threads for the shard tasks (0 = hardware concurrency; the
  /// pool never spawns more workers than shards). Any value yields
  /// bit-identical merged results.
  unsigned shard_jobs = 0;
  /// LBA-routing stripe unit in full pages. Part of the sharded run's
  /// identity: changing it changes which shard serves which LBA.
  std::uint32_t shard_stripe_pages = 64;
  /// Stream override: when set, replaces the synthetic generator (single-
  /// tenant only; `workload` then only contributes its seed to headers).
  /// warmup_requests counts against this stream. The shard orchestrator
  /// feeds each shard its pre-split slice through this; public so tests
  /// can re-run one shard standalone and byte-compare its journal.
  workload::RequestSource* stream = nullptr;
  /// Shard identity stamped into journal/health headers ((0, 1) =
  /// unsharded, headers keep their legacy bytes). Set by the shard
  /// orchestrator on each leaf shard spec.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;

  // --- Snapshot / restore (core/snapshot.h; docs/LIFETIME.md) -----------
  /// Restore path: when non-empty the run starts from this snapshot
  /// instead of preconditioning + warming up (single-tenant, unsharded
  /// only). The SsdConfig must be identical to the saving run's
  /// (fingerprint-checked). When `workload.seed` matches the snapshot's,
  /// the request stream resumes exactly where the saved run left off (the
  /// consumed prefix is replayed and discarded) and any journal/health/
  /// forensics sidecars at their spec'd paths are truncated to the
  /// checkpoint offsets and appended to in resume mode -- the finished
  /// files are byte-identical to an uninterrupted run's. A different seed
  /// starts a fresh stream over the restored device: the lifetime
  /// projection fans independent measurement legs out of one aged
  /// snapshot this way.
  std::string snapshot_in;
  /// Checkpoint path: when non-empty a snapshot is written during the run
  /// (single-tenant, unsharded only).
  std::string snapshot_out;
  /// Measured requests completed before the checkpoint is written. 0
  /// takes the checkpoint at the start of the measured window, right
  /// after warmup -- the shared aged-state anchor lifetime legs restore.
  /// Non-zero splits the measured run into two legs around the
  /// checkpoint; the merged RunResult is identical in every deterministic
  /// field to the unsplit run's.
  std::uint64_t snapshot_after_requests = 0;
};

/// Builds the SSD, preconditions it, runs the workload, returns metrics.
RunResult run_experiment(const ExperimentSpec& spec);

/// `params` with footprint_sectors defaulted, when 0, to the
/// preconditioned share of `sectors` in whole pages of `subs` sectors: the
/// paper's benchmarks run over the files laid down during preconditioning.
workload::SyntheticParams with_default_footprint(
    workload::SyntheticParams params, double precondition_fraction,
    std::uint64_t sectors, std::uint32_t subs);

/// `path` with `tag` spliced in front of the file name's extension
/// ("j.jsonl" + ".x" -> "j.x.jsonl"), or appended when the name has none.
/// Every per-cell and per-shard sidecar path is named this way.
std::string splice_path_tag(const std::string& path, const std::string& tag);

/// CPU seconds consumed by the calling thread (0.0 where unsupported), for
/// benches that time sub-run work (e.g. the replay bench's paired overhead
/// duel).
double thread_cpu_seconds();

}  // namespace esp::core
