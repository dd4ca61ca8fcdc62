#include "telemetry/forensics.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "telemetry/metrics.h"

namespace esp::telemetry {
namespace {

// Longest line: an exemplar with four chains and sixteen block addresses.
constexpr std::size_t kLineCap = 1024;

// Same rationale as the journal: "%.10g" round-trips every simulated time
// this simulator produces.
void fmt_time(char* out, std::size_t cap, SimTime t) {
  std::snprintf(out, cap, "%.10g", t);
}

// Phase histogram shape: same 100 ms clamped range as the facade's
// op-latency histograms but 100 us buckets, not 25 us. Phase durations are
// an always-on per-request tax, and two dozen 4000-bucket histograms
// (32 KiB each) thrash the cache; 8 KiB keeps the whole family resident.
constexpr double kPhaseLoUs = 0.0;
constexpr double kPhaseHiUs = 100'000.0;
constexpr std::size_t kPhaseBuckets = 1000;

/// Stall phases outrank host media work so "time stalled behind GC" is
/// charged to the stall even when a host read overlaps it; among media
/// phases, RMW reads outrank the program half, which outranks plain reads.
constexpr Phase kPriority[] = {
    Phase::kStallGc,   Phase::kStallMaint, Phase::kStallFlush,
    Phase::kRmwRead,   Phase::kMediaProg,  Phase::kMediaRead,
};

/// Serializes a phase array as a JSON object body ({"queue_wait_us":...}).
int fmt_phases(char* out, std::size_t cap,
               const std::array<double, kPhaseCount>& us) {
  int n = 0;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    char v[32];
    fmt_time(v, sizeof v, us[p]);
    n += std::snprintf(out + n, cap - static_cast<std::size_t>(n),
                       "%s\"%s_us\":%s", p == 0 ? "" : ",",
                       phase_name(static_cast<Phase>(p)), v);
  }
  return n;
}

}  // namespace

ForensicsCollector::ForensicsCollector(std::ostream& os,
                                       const ForensicsHeader& header,
                                       const Config& config, bool resume)
    : os_(os), config_(config) {
  if (config_.top_k == 0) config_.top_k = 1;
  segments_.reserve(256);
  boundaries_.reserve(512);
  blocks_.reserve(kMaxBlocks);
  heap_.reserve(config_.top_k);
  window_tail_cap_ = (config_.window_requests + 99) / 100;
  if (config_.window_requests > 0) window_.reserve(window_tail_cap_);
  if (resume) return;  // appending after a restore; hdr already on disk

  char buf[kLineCap];
  std::snprintf(buf, sizeof buf,
                "{\"v\":%d,\"t\":\"hdr\",\"stream\":\"forensics\","
                "\"ftl\":\"%s\",\"chips\":%u,\"blocks_per_chip\":%u,"
                "\"pages_per_block\":%u,\"subs\":%u,\"page_bytes\":%llu,"
                "\"seed\":%llu,\"top_k\":%u,\"window_requests\":%u%s}",
                kSchemaVersion, header.ftl.c_str(), header.chips,
                header.blocks_per_chip, header.pages_per_block,
                header.subpages_per_page,
                static_cast<unsigned long long>(header.page_bytes),
                static_cast<unsigned long long>(header.seed), config_.top_k,
                config_.window_requests, header.shard_tag().c_str());
  write_line(buf);
}

void ForensicsCollector::bind_registry(MetricsRegistry* registry) {
  registry_ = registry;
  if (!registry_) {
    for (auto& kh : kind_hist_) kh.fill(nullptr);
    for (TenantState& t : tenants_) t.hist.fill(nullptr);
    return;
  }
  for (std::size_t k = 0; k < kind_hist_.size(); ++k) {
    const std::string prefix =
        std::string("forensics/") + op_name(static_cast<OpKind>(k)) + "/";
    for (std::size_t p = 0; p < kPhaseCount; ++p)
      kind_hist_[k][p] = &registry_->histogram(
          prefix + phase_name(static_cast<Phase>(p)) + "_us", kPhaseLoUs,
          kPhaseHiUs, kPhaseBuckets);
  }
}

ForensicsCollector::TenantState& ForensicsCollector::tenant_state(
    std::uint16_t tenant) {
  if (tenants_.size() <= tenant) tenants_.resize(tenant + 1u);
  TenantState& t = tenants_[tenant];
  if (config_.tenant_hists && registry_ && t.hist[0] == nullptr) {
    const std::string prefix =
        "forensics/tenant/" + std::to_string(tenant) + "/";
    for (std::size_t p = 0; p < kPhaseCount; ++p)
      t.hist[p] = &registry_->histogram(
          prefix + phase_name(static_cast<Phase>(p)) + "_us", kPhaseLoUs,
          kPhaseHiUs, kPhaseBuckets);
  }
  return t;
}

void ForensicsCollector::begin_request(std::uint32_t id, SimTime arrival,
                                       SimTime issue, std::uint16_t tenant) {
  open_ = true;
  cur_id_ = id;
  cur_tenant_ = tenant;
  cur_arrival_ = arrival;
  cur_issue_ = issue;
  segments_.clear();
  chain_count_ = 0;
  chains_dropped_ = 0;
  empty_chain_seen_ = false;
  blocks_.clear();
  blocks_touched_ = 0;
}

void ForensicsCollector::note_chain(std::span<const CauseFrame> chain) {
  // Distinct cause chains, deduped by a cheap fold of the cause bytes
  // (chains are <= ~4 frames deep; the string is only built once per
  // distinct fingerprint per request).
  if (chain.empty()) empty_chain_seen_ = true;
  std::uint64_t fp = 0x9e3779b97f4a7c15ull;
  for (const CauseFrame& frame : chain)
    fp = (fp ^ static_cast<std::uint64_t>(frame.cause)) * 0x100000001b3ull;
  for (std::size_t i = 0; i < chain_count_; ++i)
    if (chain_fp_[i] == fp) return;
  if (chain_count_ < kMaxChains) {
    chain_fp_[chain_count_] = fp;
    std::string& s = chain_str_[chain_count_];
    s.clear();
    for (const CauseFrame& frame : chain) {
      if (!s.empty()) s += '>';
      s += cause_name(frame.cause);
    }
    ++chain_count_;
  } else {
    ++chains_dropped_;
  }
}

void ForensicsCollector::note_block(std::uint32_t chip, std::uint32_t block) {
  // Touched physical blocks, first-contact order, bounded (the inline
  // caller already rejected a repeat of the most recent contact).
  for (const auto& b : blocks_)
    if (b.first == chip && b.second == block) return;
  ++blocks_touched_;
  if (blocks_.size() < kMaxBlocks) blocks_.emplace_back(chip, block);
}

void ForensicsCollector::offer(std::vector<Exemplar>& heap, std::uint32_t k,
                               const Exemplar& ex) {
  if (heap.size() < k) {
    heap.push_back(ex);
    std::push_heap(heap.begin(), heap.end(), [](const Exemplar& a,
                                                const Exemplar& b) {
      return !less_extreme(a, b);  // min-heap on extremeness
    });
    return;
  }
  if (!less_extreme(heap.front(), ex)) return;
  std::pop_heap(heap.begin(), heap.end(), [](const Exemplar& a,
                                             const Exemplar& b) {
    return !less_extreme(a, b);
  });
  heap.back() = ex;
  std::push_heap(heap.begin(), heap.end(), [](const Exemplar& a,
                                              const Exemplar& b) {
    return !less_extreme(a, b);
  });
}

void ForensicsCollector::end_request(OpKind kind, SimTime done) {
  if (!open_) return;
  open_ = false;
  ++requests_;
  const double response = done - cur_arrival_;

  PhaseBreakdown b;
  b.us[static_cast<std::size_t>(Phase::kQueueWait)] =
      cur_issue_ - cur_arrival_;

  // Interval sweep over the request's flash ops, clipped to [issue, done):
  // the ops overlap in simulated time (chip parallelism), so each
  // elementary slice is charged to the highest-priority active phase.
  // Single-op requests (most reads, unbuffered small writes) skip the
  // sweep entirely -- one clipped interval IS its own decomposition.
  if (segments_.size() == 1) {
    const Segment& seg = segments_.front();
    const SimTime s = std::max(seg.start, cur_issue_);
    const SimTime e = std::min(seg.end, done);
    if (e > s) b.us[static_cast<std::size_t>(seg.phase)] = e - s;
  } else if (!segments_.empty()) {
    boundaries_.clear();
    for (const Segment& seg : segments_) {
      const SimTime s = std::max(seg.start, cur_issue_);
      const SimTime e = std::min(seg.end, done);
      if (e > s) {
        boundaries_.push_back(
            Boundary{s, static_cast<std::uint8_t>(seg.phase), +1});
        boundaries_.push_back(
            Boundary{e, static_cast<std::uint8_t>(seg.phase), -1});
      }
    }
    const auto before = [](const Boundary& x, const Boundary& y) {
      if (x.at != y.at) return x.at < y.at;
      if (x.phase != y.phase) return x.phase < y.phase;
      return x.delta < y.delta;
    };
    if (boundaries_.size() <= 16) {
      // Requests rarely span more than a few ops; straight insertion
      // beats std::sort's dispatch at these sizes.
      for (std::size_t i = 1; i < boundaries_.size(); ++i) {
        const Boundary key = boundaries_[i];
        std::size_t j = i;
        for (; j > 0 && before(key, boundaries_[j - 1]); --j)
          boundaries_[j] = boundaries_[j - 1];
        boundaries_[j] = key;
      }
    } else {
      std::sort(boundaries_.begin(), boundaries_.end(), before);
    }
    int active[kPhaseCount] = {};
    int active_total = 0;
    SimTime prev = 0.0;
    bool have_prev = false;
    for (const Boundary& ev : boundaries_) {
      if (have_prev && ev.at > prev && active_total > 0) {
        for (const Phase p : kPriority)
          if (active[static_cast<std::size_t>(p)] > 0) {
            b.us[static_cast<std::size_t>(p)] += ev.at - prev;
            break;
          }
      }
      active[ev.phase] += ev.delta;
      active_total += ev.delta;
      prev = ev.at;
      have_prev = true;
    }
  }

  // buffer_wait is the reconciled residual: whatever service time no flash
  // op covers. `a + (b - a)` is not guaranteed to equal `b` in IEEE
  // arithmetic, so nudge until the canonical fold reproduces the response
  // bit-exactly (converges in one or two steps; failure is counted and, in
  // audit mode, thrown -- the online end of the phase-sum invariant).
  constexpr std::size_t kBw = static_cast<std::size_t>(Phase::kBufferWait);
  for (int iter = 0; iter < 8; ++iter) {
    const double total = b.fold();
    if (total == response) break;
    b.us[kBw] += response - total;
  }
  if (b.fold() != response) {
    ++reconcile_failures_;
    if (config_.audit)
      throw std::logic_error(
          "forensics: phase fold does not reconcile with response time "
          "(request " +
          std::to_string(cur_id_) + ")");
  }

  // Histograms: per host-op kind, and per tenant. Zero-duration phases
  // contribute no sample (see the header comment): the common request has
  // two or three live phases, not eight.
  const auto k = static_cast<std::size_t>(kind);
  const bool kind_hists = registry_ && k < kind_hist_.size();
  TenantState& ten = tenant_state(cur_tenant_);
  ++ten.requests;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const double v = b.us[p];
    if (v == 0.0) continue;
    ten.phase_us[p] += v;
    if (kind_hists) kind_hist_[k][p]->add(v);
    if (ten.hist[p]) ten.hist[p]->add(v);
  }

  // Exemplar candidacy: global top-K and the tenant's own bounded set.
  // Probe on (response, id) alone before materializing the payload.
  const auto beats_front = [&](const std::vector<Exemplar>& heap) {
    if (heap.size() < config_.top_k) return true;
    const Exemplar& front = heap.front();
    if (front.response != response) return front.response < response;
    return front.id > cur_id_;
  };
  const bool global_candidate = beats_front(heap_);
  const bool tenant_candidate = beats_front(ten.heap);
  if (global_candidate || tenant_candidate) {
    Exemplar ex;
    ex.id = cur_id_;
    ex.tenant = cur_tenant_;
    ex.kind = kind;
    ex.arrival = cur_arrival_;
    ex.issue = cur_issue_;
    ex.done = done;
    ex.response = response;
    ex.phases = b;
    ex.chains.assign(chain_str_.begin(), chain_str_.begin() + chain_count_);
    ex.chains_dropped = chains_dropped_;
    ex.blocks = blocks_;
    ex.blocks_touched = blocks_touched_;
    if (global_candidate) offer(heap_, config_.top_k, ex);
    if (tenant_candidate) offer(ten.heap, config_.top_k, ex);
  }

  // Blame window bookkeeping: the window retains only its slowest
  // ceil(1%) (bounded heap, same extremeness order as the exemplars), so
  // the usual outcome is one rejected comparison.
  if (config_.window_requests > 0) {
    if (window_count_ == 0) window_start_ = cur_arrival_;
    ++window_count_;
    window_end_ = std::max(window_end_, done);
    const auto more_extreme = [](const WindowEntry& x, const WindowEntry& y) {
      if (x.response != y.response) return x.response > y.response;
      return x.id < y.id;  // min-heap on extremeness: front least extreme
    };
    if (window_.size() < window_tail_cap_) {
      window_.push_back(WindowEntry{cur_id_, response, b});
      std::push_heap(window_.begin(), window_.end(), more_extreme);
    } else {
      const WindowEntry& front = window_.front();
      if (front.response < response ||
          (front.response == response && front.id > cur_id_)) {
        std::pop_heap(window_.begin(), window_.end(), more_extreme);
        window_.back() = WindowEntry{cur_id_, response, b};
        std::push_heap(window_.begin(), window_.end(), more_extreme);
      }
    }
    if (window_count_ >= config_.window_requests) close_window();
  }
}

void ForensicsCollector::close_window() {
  if (window_count_ == 0) return;
  // Sort the retained tail candidates by (response desc, id asc): the
  // retained set is the window's slowest min(n, cap) under that total
  // order, so the slowest ceil(1%) -- the tail set -- is its prefix and
  // p99/p999 read off the same order; the whole row is integer-defined
  // and byte-stable.
  std::sort(window_.begin(), window_.end(),
            [](const WindowEntry& a, const WindowEntry& b) {
              if (a.response != b.response) return a.response > b.response;
              return a.id < b.id;
            });
  const std::size_t n = static_cast<std::size_t>(window_count_);
  const std::size_t tail99 = (n + 99) / 100;
  const std::size_t tail999 = (n + 999) / 1000;
  std::array<double, kPhaseCount> tail{};
  for (std::size_t i = 0; i < tail99; ++i)
    for (std::size_t p = 0; p < kPhaseCount; ++p)
      tail[p] += window_[i].phases.us[p];

  char start_s[32], end_s[32], p99_s[32], p999_s[32];
  fmt_time(start_s, sizeof start_s, window_start_);
  fmt_time(end_s, sizeof end_s, window_end_);
  fmt_time(p99_s, sizeof p99_s, window_[tail99 - 1].response);
  fmt_time(p999_s, sizeof p999_s, window_[tail999 - 1].response);
  char phases[kLineCap / 2];
  fmt_phases(phases, sizeof phases, tail);
  char buf[kLineCap];
  std::snprintf(buf, sizeof buf,
                "{\"t\":\"blame\",\"window\":%llu,\"start_us\":%s,"
                "\"end_us\":%s,\"requests\":%llu,\"p99_us\":%s,"
                "\"p999_us\":%s,\"tail_requests\":%llu,\"tail\":{%s}}",
                static_cast<unsigned long long>(windows_), start_s, end_s,
                static_cast<unsigned long long>(n), p99_s, p999_s,
                static_cast<unsigned long long>(tail99), phases);
  write_line(buf);
  ++windows_;
  window_.clear();
  window_count_ = 0;
  window_end_ = 0.0;
}

void ForensicsCollector::write_exemplar(const Exemplar& ex,
                                        std::uint32_t rank) {
  char arrival_s[32], issue_s[32], done_s[32], resp_s[32], svc_s[32];
  fmt_time(arrival_s, sizeof arrival_s, ex.arrival);
  fmt_time(issue_s, sizeof issue_s, ex.issue);
  fmt_time(done_s, sizeof done_s, ex.done);
  fmt_time(resp_s, sizeof resp_s, ex.response);
  fmt_time(svc_s, sizeof svc_s, ex.done - ex.issue);
  char phases[kLineCap / 2];
  fmt_phases(phases, sizeof phases, ex.phases.us);

  std::string chains;
  for (const std::string& c : ex.chains) {
    if (!chains.empty()) chains += ',';
    chains += '"';
    chains += c;
    chains += '"';
  }
  std::string blocks;
  for (const auto& bl : ex.blocks) {
    char one[32];
    std::snprintf(one, sizeof one, "%s\"%u:%u\"", blocks.empty() ? "" : ",",
                  bl.first, bl.second);
    blocks += one;
  }

  char buf[kLineCap];
  std::snprintf(buf, sizeof buf,
                "{\"t\":\"ex\",\"rank\":%u,\"req\":%u,\"tenant\":%u,"
                "\"op\":\"%s\",\"arrival_us\":%s,\"issue_us\":%s,"
                "\"done_us\":%s,\"response_us\":%s,\"service_us\":%s,"
                "\"phases\":{%s},\"chains\":[%s],\"chains_dropped\":%u,"
                "\"blocks\":[%s],\"blocks_touched\":%llu}",
                rank, ex.id, ex.tenant, op_name(ex.kind), arrival_s, issue_s,
                done_s, resp_s, svc_s, phases, chains.c_str(),
                ex.chains_dropped, blocks.c_str(),
                static_cast<unsigned long long>(ex.blocks_touched));
  write_line(buf);
}

std::vector<TenantBlame> ForensicsCollector::tenant_blame() const {
  std::vector<TenantBlame> out;
  out.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const TenantState& t = tenants_[i];
    TenantBlame blame;
    blame.tenant = static_cast<std::uint32_t>(i);
    blame.requests = t.requests;
    blame.phase_us = t.phase_us;
    blame.tail_requests = t.heap.size();
    // Deterministic tail sums regardless of heap layout: fold in
    // (response desc, id asc) order.
    std::vector<const Exemplar*> ordered;
    ordered.reserve(t.heap.size());
    for (const Exemplar& ex : t.heap) ordered.push_back(&ex);
    std::sort(ordered.begin(), ordered.end(),
              [](const Exemplar* a, const Exemplar* b) {
                return less_extreme(*b, *a);
              });
    for (const Exemplar* ex : ordered) {
      for (std::size_t p = 0; p < kPhaseCount; ++p)
        blame.tail_phase_us[p] += ex->phases.us[p];
      blame.worst_response_us =
          std::max(blame.worst_response_us, ex->response);
    }
    out.push_back(std::move(blame));
  }
  return out;
}

void ForensicsCollector::finish() {
  if (finished_) return;
  close_window();

  // Exemplars, slowest first, rank 1-based; ties on response break toward
  // the smaller request id (same order the heap was pruned under, so the
  // retained set + this sort are schedule-independent).
  std::sort(heap_.begin(), heap_.end(), [](const Exemplar& a,
                                           const Exemplar& b) {
    return less_extreme(b, a);
  });
  for (std::size_t i = 0; i < heap_.size(); ++i)
    write_exemplar(heap_[i], static_cast<std::uint32_t>(i + 1));

  // Per-tenant blame lines, only on genuinely multi-tenant streams (the
  // single-tenant byte format stays free of them).
  if (tenants_.size() > 1) {
    const std::vector<TenantBlame> blames = tenant_blame();
    for (const TenantBlame& t : blames) {
      char totals[kLineCap / 2], tail[kLineCap / 2], worst_s[32];
      fmt_phases(totals, sizeof totals, t.phase_us);
      fmt_phases(tail, sizeof tail, t.tail_phase_us);
      fmt_time(worst_s, sizeof worst_s, t.worst_response_us);
      // Room for the worst case of every part (two phase bodies of up to
      // kLineCap / 2 bytes each), so no line can be cut; real lines stay
      // under ~720 bytes.
      char buf[2 * kLineCap];
      std::snprintf(buf, sizeof buf,
                    "{\"t\":\"tnt\",\"tenant\":%u,\"requests\":%llu,"
                    "\"phases\":{%s},\"tail_requests\":%llu,\"tail\":{%s},"
                    "\"worst_response_us\":%s}",
                    t.tenant, static_cast<unsigned long long>(t.requests),
                    totals, static_cast<unsigned long long>(t.tail_requests),
                    tail, worst_s);
      write_line(buf);
    }
  }

  char buf[kLineCap];
  std::snprintf(
      buf, sizeof buf,
      "{\"t\":\"end\",\"requests\":%llu,\"exemplars\":%llu,"
      "\"truncated\":%llu,\"windows\":%llu,\"reconcile_failures\":%llu}",
      static_cast<unsigned long long>(requests_),
      static_cast<unsigned long long>(heap_.size()),
      static_cast<unsigned long long>(truncated()),
      static_cast<unsigned long long>(windows_),
      static_cast<unsigned long long>(reconcile_failures_));
  write_line(buf);
  os_.flush();
  finished_ = true;
}

void ForensicsCollector::write_line(const char* buf) { os_ << buf << '\n'; }

void ForensicsCollector::save_exemplar(util::StateWriter& w,
                                       const Exemplar& ex) const {
  w.u32(ex.id);
  w.u32(ex.tenant);
  w.u8(static_cast<std::uint8_t>(ex.kind));
  w.f64(ex.arrival);
  w.f64(ex.issue);
  w.f64(ex.done);
  w.f64(ex.response);
  w.raw(ex.phases.us.data(), sizeof(double) * kPhaseCount);
  w.u64(ex.chains.size());
  for (const std::string& c : ex.chains) w.str(c);
  w.u32(ex.chains_dropped);
  w.pair_vec(ex.blocks);
  w.u64(ex.blocks_touched);
}

ForensicsCollector::Exemplar ForensicsCollector::load_exemplar(
    util::StateReader& r) const {
  Exemplar ex;
  ex.id = r.u32();
  ex.tenant = static_cast<std::uint16_t>(r.u32());
  ex.kind = static_cast<OpKind>(r.u8());
  ex.arrival = r.f64();
  ex.issue = r.f64();
  ex.done = r.f64();
  ex.response = r.f64();
  r.raw(ex.phases.us.data(), sizeof(double) * kPhaseCount);
  const std::uint64_t n_chains = r.u64();
  ex.chains.reserve(n_chains);
  for (std::uint64_t i = 0; i < n_chains; ++i) ex.chains.push_back(r.str());
  ex.chains_dropped = r.u32();
  r.pair_vec(ex.blocks);
  ex.blocks_touched = r.u64();
  return ex;
}

void ForensicsCollector::save_state(util::StateWriter& w) const {
  if (open_)
    throw std::runtime_error("ForensicsCollector::save_state: open request");
  w.tag("FRNS");
  w.u32(config_.top_k);
  w.u32(config_.window_requests);
  w.u64(requests_);
  w.u64(windows_);
  w.u64(reconcile_failures_);
  w.u64(heap_.size());
  for (const Exemplar& ex : heap_) save_exemplar(w, ex);
  w.pod_vec(window_);
  w.u64(window_count_);
  w.f64(window_start_);
  w.f64(window_end_);
  w.u64(tenants_.size());
  for (const TenantState& t : tenants_) {
    w.u64(t.requests);
    w.raw(t.phase_us.data(), sizeof(double) * kPhaseCount);
    w.u64(t.heap.size());
    for (const Exemplar& ex : t.heap) save_exemplar(w, ex);
  }
}

void ForensicsCollector::load_state(util::StateReader& r) {
  r.tag("FRNS");
  if (r.u32() != config_.top_k || r.u32() != config_.window_requests)
    throw std::runtime_error(
        "ForensicsCollector::load_state: config mismatch");
  requests_ = r.u64();
  windows_ = r.u64();
  reconcile_failures_ = r.u64();
  heap_.clear();
  const std::uint64_t n_heap = r.u64();
  for (std::uint64_t i = 0; i < n_heap; ++i)
    heap_.push_back(load_exemplar(r));
  r.pod_vec(window_);
  window_count_ = r.u64();
  window_start_ = r.f64();
  window_end_ = r.f64();
  const std::uint64_t n_tenants = r.u64();
  tenants_.clear();
  for (std::uint64_t i = 0; i < n_tenants; ++i) {
    // tenant_state() lazily re-binds the per-tenant histogram family when
    // configured -- the registry restored them by name already, so the
    // bind resolves to the loaded histograms.
    TenantState& t = tenant_state(static_cast<std::uint16_t>(i));
    t.requests = r.u64();
    r.raw(t.phase_us.data(), sizeof(double) * kPhaseCount);
    t.heap.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t j = 0; j < n; ++j) t.heap.push_back(load_exemplar(r));
  }
  open_ = false;
  finished_ = false;
}

}  // namespace esp::telemetry
