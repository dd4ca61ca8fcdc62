// Tail-latency forensics: per-request stall attribution, slowest-N
// exemplars and windowed p99/p999 blame decomposition.
//
// Every host request the driver submits gets a *phase breakdown* of its
// response time (arrival -> done):
//
//   queue_wait   arrival -> issue: the wait for a queue-depth window slot
//   media_read   flash reads serving the host path (cause = host)
//   media_prog   flash programs/erases on the host path (incl. the program
//                half of an RMW merge)
//   rmw_read     flash reads inside an RMW scope (the paper's read cost of
//                full-page read-modify-write)
//   stall_gc     time behind flash ops inside a GC scope
//   stall_maint  time behind forward-migration / retention-eviction /
//                wear-leveling flash ops
//   stall_flush  time behind flash ops inside an explicit flush scope
//   buffer_wait  the residual: service time not covered by any flash op --
//                buffer-insert/drain bookkeeping on the buffered write path
//
// Attribution works on the *flash command lane only* (programs, reads,
// erases), classified by the existing Cause taxonomy: the simulated
// intervals of a request's flash ops overlap freely (multi-chip
// parallelism), so an interval sweep clips them to [issue, done) and
// charges each elementary time slice to exactly one phase (stalls win over
// host media work, so "time stalled behind GC" means what it says).
//
// Invariant (same discipline as the journal's counter reconciliation): the
// eight phases, folded in enum order, sum BIT-EXACTLY to response time.
// buffer_wait is defined as the reconciled residual -- a short correction
// loop absorbs the one-or-two-ULP slack IEEE addition leaves -- and the
// collector verifies the fold on every request; in audit mode a failed
// reconciliation throws std::logic_error.
//
// Outputs:
//   * per-kind phase histograms ("forensics/<op>/<phase>_us") and, on
//     multi-tenant runs, per-tenant ones ("forensics/tenant/<i>/...") in
//     the bound MetricsRegistry -- a phase with zero duration contributes
//     no sample (the histograms answer "when this phase occurs, how
//     long?", and skipping zeros keeps the always-on cost down);
//   * a windowed blame stream: every `window_requests` requests, the
//     slowest 1% (ceil) are summed per phase -- which phase dominates the
//     tail, per window;
//   * deterministic slowest-N exemplars (bounded top-K heap, ties broken
//     on request id) dumped with full phase breakdown, distinct cause
//     chains and touched block addresses;
// all streamed as schema-v1 JSONL (hdr / blame / ex / tnt / end lines,
// "%.10g" timestamps, shard fields in the hdr only when shards > 1 --
// mirroring the journal's format discipline).
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "telemetry/causes.h"
#include "telemetry/sink.h"
#include "util/histogram.h"

namespace esp::telemetry {

class MetricsRegistry;

/// Response-time phases, in the (fixed) fold order the bit-exact sum
/// invariant is defined over.
enum class Phase : std::uint8_t {
  kQueueWait = 0,
  kMediaRead,
  kMediaProg,
  kRmwRead,
  kStallGc,
  kStallMaint,
  kStallFlush,
  kBufferWait,
  kCount,
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

/// Stable metric/JSONL name of a phase.
constexpr const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kMediaRead: return "media_read";
    case Phase::kMediaProg: return "media_prog";
    case Phase::kRmwRead: return "rmw_read";
    case Phase::kStallGc: return "stall_gc";
    case Phase::kStallMaint: return "stall_maint";
    case Phase::kStallFlush: return "stall_flush";
    case Phase::kBufferWait: return "buffer_wait";
    case Phase::kCount: break;
  }
  return "unknown";
}

/// Phase a flash-lane op charges, from its attributed cause (innermost
/// open scope) and kind. Host-cause programs/erases are media work; reads
/// under an RMW scope are the paper's full-page-read cost; everything
/// under a mechanism scope is a stall.
constexpr Phase classify_phase(Cause cause, OpKind kind) {
  switch (cause) {
    case Cause::kGcCopy: return Phase::kStallGc;
    case Cause::kForwardMigration:
    case Cause::kRetentionEvict:
    case Cause::kWearLevel: return Phase::kStallMaint;
    case Cause::kFlush: return Phase::kStallFlush;
    case Cause::kRmw:
      return kind == OpKind::kRead ? Phase::kRmwRead : Phase::kMediaProg;
    default:
      return kind == OpKind::kRead ? Phase::kMediaRead : Phase::kMediaProg;
  }
}

/// One request's phase decomposition. fold() is THE canonical sum: fixed
/// enum order, so "fold() == response" is a bit-exact statement.
struct PhaseBreakdown {
  std::array<double, kPhaseCount> us{};

  double fold() const {
    double total = 0.0;
    for (std::size_t p = 0; p < kPhaseCount; ++p) total += us[p];
    return total;
  }
};

/// Per-tenant blame summary harvested into RunResult on multi-tenant runs.
struct TenantBlame {
  std::uint32_t tenant = 0;
  std::uint64_t requests = 0;
  /// Phase totals over every request of this tenant.
  std::array<double, kPhaseCount> phase_us{};
  /// Phase totals over the tenant's slowest `tail_requests` requests (its
  /// bounded per-tenant exemplar set).
  std::uint64_t tail_requests = 0;
  std::array<double, kPhaseCount> tail_phase_us{};
  /// Slowest retained response time (the tail set's maximum).
  double worst_response_us = 0.0;
};

/// Run-identifying fields written into the forensics hdr line.
using ForensicsHeader = StreamHeader;

class ForensicsCollector {
 public:
  static constexpr int kSchemaVersion = 1;

  struct Config {
    /// Slowest-N exemplars retained (per stream) and per tenant.
    std::uint32_t top_k = 16;
    /// Blame-window size in requests; the final partial window is closed
    /// at finish(). 0 disables the blame stream.
    std::uint32_t window_requests = 4096;
    /// Throw std::logic_error when a request's phase fold fails to
    /// reconcile with its response time (the online-auditor discipline).
    bool audit = false;
    /// Bind per-tenant phase histograms ("forensics/tenant/<i>/...").
    /// Off by default: on a single-tenant run they would mirror the
    /// per-kind family add-for-add, doubling the per-request histogram
    /// cost for no information. Tenant phase SUMS (tenant_blame) are
    /// tracked regardless.
    bool tenant_hists = false;
  };

  /// Writes the hdr line immediately; the stream must outlive the
  /// collector. With `resume` set, no hdr line is written (appending to an
  /// existing stream after a snapshot restore; stream state arrives via
  /// load_state).
  ForensicsCollector(std::ostream& os, const ForensicsHeader& header,
                     const Config& config, bool resume = false);

  /// Binds the phase histograms into `registry` (lazily per tenant).
  /// Call once, before the first request; nullptr detaches.
  void bind_registry(MetricsRegistry* registry);

  // --- Fed by the Telemetry facade ----------------------------------
  void begin_request(std::uint32_t id, SimTime arrival, SimTime issue,
                     std::uint16_t tenant);
  /// One flash-lane op executed on behalf of the open request, with its
  /// attributed cause and full cause chain (outermost first). Non-flash
  /// lanes are ignored (their spans overlap the flash work they wrap).
  /// Inline: this is the collector's per-op tax, and the common op extends
  /// the current segment and short-circuits both dedup scans.
  void on_op(const OpEvent& event, Cause cause,
             std::span<const CauseFrame> chain) {
    if (!open_) return;
    switch (event.kind) {
      case OpKind::kProgFull:
      case OpKind::kProgSub:
      case OpKind::kRead:
      case OpKind::kErase:
        break;
      default:
        return;  // host/FTL lanes overlap the flash work they wrap
    }
    // Coalesce with the previous segment when same-phase and overlapping:
    // a GC/flush burst records hundreds of contiguous ops, and the union
    // per phase -- all the sweep ever sees -- is unchanged by merging.
    const Phase phase = classify_phase(cause, event.kind);
    Segment* last = segments_.empty() ? nullptr : &segments_.back();
    if (last && last->phase == phase && event.start <= last->end &&
        event.start >= last->start) {
      if (event.end > last->end) last->end = event.end;
    } else {
      segments_.push_back(Segment{event.start, event.end, phase});
    }
    // The bare host chain (no open cause scope) is by far the most common
    // and costs one flag test once recorded; repeated contacts with the
    // most recent block cost two compares.
    if (!(chain.empty() && empty_chain_seen_)) note_chain(chain);
    if (event.chip != kNoChip &&
        !(!blocks_.empty() && blocks_.back().first == event.chip &&
          blocks_.back().second == event.block))
      note_block(event.chip, event.block);
  }
  void end_request(OpKind kind, SimTime done);

  /// Closes the final partial blame window, writes exemplar + per-tenant
  /// + end lines (idempotent).
  void finish();

  std::uint64_t requests() const { return requests_; }
  std::uint64_t exemplars_retained() const { return heap_.size(); }
  /// Requests that produced no exemplar line (requests - top_k kept).
  std::uint64_t truncated() const {
    return requests_ - static_cast<std::uint64_t>(heap_.size());
  }
  std::uint64_t windows_written() const { return windows_; }
  /// Requests whose phase fold failed to reconcile bit-exactly with their
  /// response time (0 in any healthy run; audit mode throws instead).
  std::uint64_t reconcile_failures() const { return reconcile_failures_; }

  /// Per-tenant blame summaries, tenant-id order. Meaningful after the
  /// run; single-tenant runs report one entry for tenant 0.
  std::vector<TenantBlame> tenant_blame() const;

  /// Snapshot support. Taken between requests (save throws on an open
  /// request, like the facade): stream counters, the exemplar and blame
  /// heaps (exact array layout) and per-tenant state are archived. Call
  /// load after bind_registry so restored tenants re-bind their
  /// histograms.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  struct Segment {
    SimTime start = 0.0;
    SimTime end = 0.0;
    Phase phase = Phase::kMediaProg;
  };

  static constexpr std::size_t kMaxChains = 4;
  static constexpr std::size_t kMaxBlocks = 16;

  /// Retained exemplar payload (top-K heap entry).
  struct Exemplar {
    std::uint32_t id = 0;
    std::uint16_t tenant = 0;
    OpKind kind = OpKind::kCount;
    SimTime arrival = 0.0;
    SimTime issue = 0.0;
    SimTime done = 0.0;
    double response = 0.0;
    PhaseBreakdown phases;
    std::vector<std::string> chains;  ///< distinct cause chains, <= kMaxChains
    std::uint32_t chains_dropped = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> blocks;  ///< chip,blk
    std::uint64_t blocks_touched = 0;  ///< distinct-ish total (first-contact)
  };

  /// One retained tail candidate of the open blame window. The window
  /// keeps only its slowest ceil(window_requests/100) requests (bounded
  /// min-extremeness heap, same tie-break as the exemplar heap): the blame
  /// line needs phase sums over the slowest 1% plus p99/p999, never the
  /// full window, so the common-case per-request cost is one comparison.
  struct WindowEntry {
    std::uint32_t id = 0;
    double response = 0.0;
    PhaseBreakdown phases;
  };

  struct TenantState {
    std::uint64_t requests = 0;
    std::array<double, kPhaseCount> phase_us{};
    /// Bounded slowest-K set, same (response desc, id asc) order as the
    /// global exemplar heap.
    std::vector<Exemplar> heap;
    /// Registry-owned per-tenant phase histograms (null without registry).
    std::array<util::Histogram*, kPhaseCount> hist{};
  };

  /// True when `a` is less extreme than `b` (slower response wins, ties
  /// break toward the SMALLER request id -- the stable-tie-break rule).
  static bool less_extreme(const Exemplar& a, const Exemplar& b) {
    if (a.response != b.response) return a.response < b.response;
    return a.id > b.id;
  }

  /// Offers `ex` to a bounded slowest-K heap (min-heap on extremeness).
  static void offer(std::vector<Exemplar>& heap, std::uint32_t k,
                    const Exemplar& ex);

  TenantState& tenant_state(std::uint16_t tenant);
  void save_exemplar(util::StateWriter& w, const Exemplar& ex) const;
  Exemplar load_exemplar(util::StateReader& r) const;
  /// Slow halves of on_op: dedup-and-record a cause chain / a touched
  /// block after the inline fast checks miss.
  void note_chain(std::span<const CauseFrame> chain);
  void note_block(std::uint32_t chip, std::uint32_t block);
  void close_window();
  void write_line(const char* buf);
  void write_exemplar(const Exemplar& ex, std::uint32_t rank);

  std::ostream& os_;
  Config config_;
  MetricsRegistry* registry_ = nullptr;
  /// Per-host-op-kind phase histograms (kHostWrite..kHostTrim).
  std::array<std::array<util::Histogram*, kPhaseCount>, 4> kind_hist_{};

  // Open-request scratch, reused across requests (no steady-state
  // allocation).
  bool open_ = false;
  std::uint32_t cur_id_ = 0;
  std::uint16_t cur_tenant_ = 0;
  SimTime cur_arrival_ = 0.0;
  SimTime cur_issue_ = 0.0;
  std::vector<Segment> segments_;
  std::array<std::uint64_t, kMaxChains> chain_fp_{};
  std::array<std::string, kMaxChains> chain_str_;
  std::size_t chain_count_ = 0;
  std::uint32_t chains_dropped_ = 0;
  /// Fast path: the bare host chain (no open cause scope) is by far the
  /// most common, and once recorded every later bare-chain op can skip the
  /// fingerprint fold and table scan outright.
  bool empty_chain_seen_ = false;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> blocks_;
  std::uint64_t blocks_touched_ = 0;
  /// Interval-sweep scratch: boundary events (time, phase, +1/-1).
  struct Boundary {
    SimTime at;
    std::uint8_t phase;
    std::int8_t delta;
  };
  std::vector<Boundary> boundaries_;

  // Stream state.
  std::uint64_t requests_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t reconcile_failures_ = 0;
  bool finished_ = false;
  std::vector<Exemplar> heap_;          ///< global slowest-K
  std::vector<WindowEntry> window_;     ///< open window's tail candidates
  std::uint32_t window_tail_cap_ = 0;   ///< ceil(window_requests / 100)
  std::uint64_t window_count_ = 0;      ///< requests in the open window
  SimTime window_start_ = 0.0;
  SimTime window_end_ = 0.0;
  std::vector<TenantState> tenants_;    ///< indexed by tenant id
};

}  // namespace esp::telemetry
