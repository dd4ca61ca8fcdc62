#include "core/observers.h"

#include <filesystem>
#include <stdexcept>

namespace esp::core {
namespace {

// Opens a sidecar for a fresh run (truncate), or for a resumed one: cut
// back to its checkpoint-time `offset` and reopened for append, so the
// resumed sink continues exactly where the saved run left off. Returns
// whether the sidecar resumed.
bool open_sidecar(std::ofstream& os, const std::string& path,
                  std::uint64_t offset, const char* what) {
  const bool resume = offset != SnapshotMeta::kNoSidecar;
  if (resume) {
    std::error_code ec;
    std::filesystem::resize_file(path, offset, ec);
    if (ec)
      throw std::runtime_error(std::string("run_experiment: cannot truncate ") +
                               what + " sidecar for resume: " + path + ": " +
                               ec.message());
  }
  os.open(path, std::ios::out | std::ios::binary |
                    (resume ? std::ios::app : std::ios::trunc));
  if (!os)
    throw std::runtime_error(std::string("run_experiment: cannot open ") +
                             what + " file: " + path);
  return resume;
}

std::uint64_t flushed_offset(std::ofstream& os) {
  os.flush();
  return static_cast<std::uint64_t>(os.tellp());
}

// The run identity every sidecar's hdr line carries.
telemetry::StreamHeader stream_header(const ExperimentSpec& spec) {
  const nand::Geometry& geo = spec.ssd.geometry;
  telemetry::StreamHeader hdr;
  hdr.ftl = ftl_kind_name(spec.ssd.ftl);
  hdr.chips = geo.total_chips();
  hdr.blocks_per_chip = geo.blocks_per_chip;
  hdr.pages_per_block = geo.pages_per_block;
  hdr.subpages_per_page = geo.subpages_per_page;
  hdr.page_bytes = geo.page_bytes;
  hdr.seed = spec.workload.seed;
  hdr.shard = spec.shard_index;
  hdr.shards = spec.shard_count;
  return hdr;
}

}  // namespace

telemetry::TelemetryConfig lean_telemetry_config() {
  telemetry::TelemetryConfig cfg;
  cfg.trace_capacity = 256;
  cfg.op_detail = false;
  return cfg;
}

Observers::Observers(const ExperimentSpec& spec, telemetry::Telemetry& tel,
                     const SnapshotMeta* resume)
    : tel_(tel) {
  const ObserveSpec& observe = spec.observe;
  const telemetry::StreamHeader hdr = stream_header(spec);
  const auto offset = [resume](bool SnapshotMeta::*saved,
                               std::uint64_t SnapshotMeta::*at) {
    return resume && resume->*saved ? resume->*at : SnapshotMeta::kNoSidecar;
  };
  if (!observe.journal_path.empty()) {
    journal_resumed_ = open_sidecar(
        journal_os_, observe.journal_path,
        offset(&SnapshotMeta::has_journal, &SnapshotMeta::journal_offset),
        "journal");
    journal_.emplace(journal_os_, hdr, observe.journal_max_events,
                     journal_resumed_);
    tel_.set_journal(&*journal_);
  }
  if (observe.audit) {
    telemetry::AuditorConfig cfg;
    cfg.chips = hdr.chips;
    cfg.blocks_per_chip = hdr.blocks_per_chip;
    cfg.pages_per_block = hdr.pages_per_block;
    cfg.subpages_per_page = hdr.subpages_per_page;
    auditor_.emplace(cfg);
    tel_.set_auditor(&*auditor_);
  }
  if (!observe.health_path.empty()) {
    health_resumed_ = open_sidecar(
        health_os_, observe.health_path,
        offset(&SnapshotMeta::has_health, &SnapshotMeta::health_offset),
        "health");
    health_.emplace(health_os_,
                    telemetry::HealthHeader{hdr, observe.health_interval_us,
                                            observe.health_rated_pe},
                    health_resumed_);
    tel_.set_health(&*health_);
  }
  if (!observe.forensics_path.empty()) {
    forensics_resumed_ = open_sidecar(
        forensics_os_, observe.forensics_path,
        offset(&SnapshotMeta::has_forensics, &SnapshotMeta::forensics_offset),
        "forensics");
    telemetry::ForensicsCollector::Config cfg;
    cfg.top_k = observe.forensics_top;
    cfg.audit = observe.audit;
    cfg.tenant_hists = spec.tenants.size() > 1;
    forensics_.emplace(forensics_os_, hdr, cfg, forensics_resumed_);
    tel_.set_forensics(&*forensics_);
  }
}

Observers::~Observers() { detach(); }

void Observers::detach() {
  tel_.set_journal(nullptr);
  tel_.set_auditor(nullptr);
  tel_.set_health(nullptr);
  tel_.set_forensics(nullptr);
}

SnapshotSinks Observers::restore_sinks() {
  SnapshotSinks sinks;
  if (auditor_) sinks.auditor = &*auditor_;
  if (journal_resumed_) sinks.journal = &*journal_;
  if (health_resumed_) sinks.health = &*health_;
  if (forensics_resumed_) sinks.forensics = &*forensics_;
  return sinks;
}

SnapshotSinks Observers::checkpoint(SnapshotMeta& meta) {
  SnapshotSinks sinks;
  if (auditor_) sinks.auditor = &*auditor_;
  if (journal_) {
    meta.journal_offset = flushed_offset(journal_os_);
    sinks.journal = &*journal_;
  }
  if (health_) {
    meta.health_offset = flushed_offset(health_os_);
    sinks.health = &*health_;
  }
  if (forensics_) {
    meta.forensics_offset = flushed_offset(forensics_os_);
    sinks.forensics = &*forensics_;
  }
  return sinks;
}

void Observers::finish(RunResult& result) {
  SidecarCounts& counts = result.sidecars;
  counts.trace_dropped = tel_.trace().dropped();
  if (journal_) {
    journal_->finish();
    counts.journal_events = journal_->events_written();
    counts.journal_truncated = journal_->truncated();
  }
  if (health_) {
    health_->finish();
    counts.health_epochs = health_->epochs_written();
    counts.health_lines = health_->lines_written();
  }
  if (forensics_) {
    forensics_->finish();
    counts.forensics_requests = forensics_->requests();
    counts.forensics_exemplars = forensics_->exemplars_retained();
    counts.forensics_truncated = forensics_->truncated();
    result.tenant_blame = forensics_->tenant_blame();
  }
  detach();
}

}  // namespace esp::core
