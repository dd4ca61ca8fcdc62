#include "telemetry/telemetry.h"

#include <string>

#include "telemetry/auditor.h"
#include "telemetry/forensics.h"
#include "telemetry/health.h"
#include "telemetry/journal.h"

namespace esp::telemetry {
namespace {

// Per-op latency histogram shape: 25 us resolution up to 100 ms covers
// everything from cache-hit reads (~tens of us) through multi-page GC
// copies; longer outliers clamp into the last bucket and show up in
// Histogram::overflow().
constexpr double kLatLoUs = 0.0;
constexpr double kLatHiUs = 100'000.0;
constexpr std::size_t kLatBuckets = 4000;

}  // namespace

Telemetry::Telemetry(const TelemetryConfig& config)
    : trace_(config.trace_capacity),
      sampler_(config.sample_interval_us),
      op_detail_(config.op_detail),
      detail_(config.op_detail) {
  window_.reserve(kOpKindCount);
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const std::string name =
        std::string("op/") + op_name(static_cast<OpKind>(k)) + "/latency_us";
    cumulative_[k] = &registry_.histogram(name, kLatLoUs, kLatHiUs, kLatBuckets);
    window_.emplace_back(kLatLoUs, kLatHiUs, kLatBuckets);
  }
  // Queue-wait (response - service) distributions for the host lane; the
  // flash/FTL lanes have no arrival clock, so only kinds 0..3 get one.
  for (std::size_t k = 0; k < 4; ++k) {
    const std::string name =
        std::string("op/") + op_name(static_cast<OpKind>(k)) + "/wait_us";
    wait_[k] = &registry_.histogram(name, kLatLoUs, kLatHiUs, kLatBuckets);
  }
  for (std::size_t c = 0; c < kCauseCount; ++c) {
    const std::string prefix =
        std::string("cause/") + cause_name(static_cast<Cause>(c));
    registry_.bind_counter(prefix + "/prog_full", &cause_progs_full_[c]);
    registry_.bind_counter(prefix + "/prog_sub", &cause_progs_sub_[c]);
    registry_.bind_counter(prefix + "/erase", &cause_erases_[c]);
    cause_latency_[c] = &registry_.histogram(prefix + "/latency_us", kLatLoUs,
                                             kLatHiUs, kLatBuckets);
  }
}

void Telemetry::record_detail(const OpEvent& event) {
  const auto k = static_cast<std::size_t>(event.kind);
  if (k >= kOpKindCount) return;
  if (op_detail_) {
    const double dur = event.end - event.start;
    cumulative_[k]->add(dur);
    window_[k].add(dur);
    trace_.push(TraceEvent{event.kind, current_request_, event.start, dur,
                           event.arg0, event.arg1});
    if (event.kind == OpKind::kProgFull || event.kind == OpKind::kProgSub ||
        event.kind == OpKind::kErase)
      cause_latency_[static_cast<std::size_t>(current_cause())]->add(dur);
  }
  if (journal_)
    journal_->on_op(event, current_cause(), cause_stack_, current_request_);
  if (auditor_) auditor_->on_op(event, cause_stack_);
}

void Telemetry::record_host_detail(const OpEvent& event) {
  const auto k = static_cast<std::size_t>(event.kind);
  if (op_detail_ && k < 4) wait_[k]->add(event.start - current_arrival_);
  record_detail(event);
}

void Telemetry::count_gc_victim(std::uint32_t chip, std::uint32_t block) {
  // An erase under a GC pass means the block was a GC victim.
  health_->count_gc_victim(chip, block);
}

void Telemetry::journal_scope(char phase, const CauseFrame& frame) {
  journal_->on_scope(phase, frame);
}

void Telemetry::record_block(const BlockLifecycleEvent& event) {
  if (journal_) journal_->on_block(event);
  if (auditor_) auditor_->on_block(event, cause_stack_);
}

std::uint64_t Telemetry::cause_count(Cause cause, OpKind kind) const {
  const auto c = static_cast<std::size_t>(cause);
  if (c >= kCauseCount) return 0;
  switch (kind) {
    case OpKind::kProgFull: return cause_progs_full_[c];
    case OpKind::kProgSub: return cause_progs_sub_[c];
    case OpKind::kErase: return cause_erases_[c];
    default: return 0;
  }
}

void Telemetry::set_forensics(ForensicsCollector* forensics) {
  forensics_ = forensics;
  if (forensics_) forensics_->bind_registry(&registry_);
}

void Telemetry::save_state(util::StateWriter& w) const {
  if (!cause_stack_.empty())
    throw std::runtime_error("Telemetry::save_state: open cause scope");
  if (current_request_ != 0)
    throw std::runtime_error("Telemetry::save_state: open host request");
  w.tag("TELM");
  w.b(op_detail_);
  registry_.save_state(w);
  trace_.save_state(w);
  sampler_.save_state(w);
  w.u32(next_request_id_);
  w.f64(current_arrival_);
  for (const util::Histogram& h : window_) h.save_state(w);
  w.raw(cause_progs_full_, sizeof cause_progs_full_);
  w.raw(cause_progs_sub_, sizeof cause_progs_sub_);
  w.raw(cause_erases_, sizeof cause_erases_);
}

void Telemetry::load_state(util::StateReader& r) {
  r.tag("TELM");
  if (r.b() != op_detail_)
    throw std::runtime_error("Telemetry::load_state: op_detail mismatch");
  registry_.load_state(r);
  trace_.load_state(r);
  sampler_.load_state(r);
  next_request_id_ = r.u32();
  current_arrival_ = r.f64();
  for (util::Histogram& h : window_) h.load_state(r);
  r.raw(cause_progs_full_, sizeof cause_progs_full_);
  r.raw(cause_progs_sub_, sizeof cause_progs_sub_);
  r.raw(cause_erases_, sizeof cause_erases_);
  current_request_ = 0;
  cause_stack_.clear();
}

void Telemetry::harvest_window(Sample& sample) {
  util::Histogram all(kLatLoUs, kLatHiUs, kLatBuckets);
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    util::Histogram& h = window_[k];
    if (h.total() > 0) {
      sample.op_p50_us[k] = h.percentile(0.50);
      sample.op_p99_us[k] = h.percentile(0.99);
      all.merge(h);
    }
    h.reset();
  }
  if (all.total() > 0) {
    sample.all_ops_p50_us = all.percentile(0.50);
    sample.all_ops_p99_us = all.percentile(0.99);
    sample.all_ops_p999_us = all.percentile(0.999);
  }
}

}  // namespace esp::telemetry
