// Wall-clock attribution for the steady-state benchmark.
//
// TracingFtl is a forwarding ftl::Ftl decorator: handed to a sim::Driver in
// place of the real FTL, it times every virtual call on the host's steady
// clock and charges it to the FTL layer, so the bench loop can split
// Driver::submit time into driver self time and time inside the FTL. It
// changes no simulated decision -- every call is forwarded verbatim, and
// the benchmark checks that traced and untraced windows produce the same
// simulation digest.
//
// SpanRecorder keeps a bounded sample of per-request spans (request ->
// driver -> ftl call, one shared id per request) in memory and writes them
// out as Chrome trace_event JSON when the run ends.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftl/ftl.h"

namespace perfbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The span names a traced request can produce.
enum class SpanKind : std::uint8_t {
  kRequest,  ///< one bench-loop iteration (fetch + submit)
  kDriver,   ///< Driver::submit
  kFtlWrite,
  kFtlRead,
  kFtlTrim,
  kFtlFlush,
  kFtlTick,
};

inline const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kDriver: return "sim.Driver::submit";
    case SpanKind::kFtlWrite: return "ftl.write";
    case SpanKind::kFtlRead: return "ftl.read";
    case SpanKind::kFtlTrim: return "ftl.trim";
    case SpanKind::kFtlFlush: return "ftl.flush";
    case SpanKind::kFtlTick: return "ftl.tick";
  }
  return "unknown";
}

struct Span {
  std::uint32_t request = 0;  ///< shared by every span of one request
  SpanKind kind = SpanKind::kRequest;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Bounded in-memory span sample. Recording is armed per request by the
/// bench loop; nothing is written until write_chrome_trace().
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t max_spans) { spans_.reserve(max_spans); }

  bool full() const { return spans_.size() + 8 > spans_.capacity(); }
  /// Arms recording for one request; `request` becomes the spans' id.
  void arm(std::uint32_t request) {
    armed_ = !full();
    request_ = request;
  }
  void disarm() { armed_ = false; }
  void add(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns) {
    if (armed_) spans_.push_back(Span{request_, kind, start_ns, end_ns});
  }
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace_event "complete" events (ph "X"), microsecond times
  /// relative to the first span. Layers map to trace threads so the nesting
  /// request > driver > ftl reads top to bottom in a trace viewer.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint32_t request_ = 0;
  bool armed_ = false;
};

/// Per-call-kind wall-clock totals of the FTL layer.
struct FtlCallTotals {
  static constexpr std::size_t kKinds = 5;  // write, read, trim, flush, tick
  std::array<std::uint64_t, kKinds> calls{};
  std::array<std::int64_t, kKinds> ns{};

  std::int64_t total_ns() const {
    std::int64_t t = 0;
    for (const std::int64_t v : ns) t += v;
    return t;
  }
};

class TracingFtl final : public esp::ftl::Ftl {
 public:
  TracingFtl(esp::ftl::Ftl& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  esp::ftl::IoResult write(std::uint64_t sector, std::uint32_t count,
                           bool sync, esp::SimTime now) override {
    const std::int64_t t0 = wall_ns();
    const esp::ftl::IoResult r = inner_.write(sector, count, sync, now);
    charge(SpanKind::kFtlWrite, t0);
    return r;
  }
  esp::ftl::IoResult read(std::uint64_t sector, std::uint32_t count,
                          esp::SimTime now,
                          std::vector<std::uint64_t>* tokens) override {
    const std::int64_t t0 = wall_ns();
    const esp::ftl::IoResult r = inner_.read(sector, count, now, tokens);
    charge(SpanKind::kFtlRead, t0);
    return r;
  }
  esp::ftl::IoResult flush(esp::SimTime now) override {
    const std::int64_t t0 = wall_ns();
    const esp::ftl::IoResult r = inner_.flush(now);
    charge(SpanKind::kFtlFlush, t0);
    return r;
  }
  void trim(std::uint64_t sector, std::uint32_t count) override {
    const std::int64_t t0 = wall_ns();
    inner_.trim(sector, count);
    charge(SpanKind::kFtlTrim, t0);
  }
  esp::SimTime tick(esp::SimTime now) override {
    const std::int64_t t0 = wall_ns();
    const esp::SimTime t = inner_.tick(now);
    charge(SpanKind::kFtlTick, t0);
    return t;
  }

  std::uint64_t logical_sectors() const override {
    return inner_.logical_sectors();
  }
  const esp::ftl::FtlStats& stats() const override { return inner_.stats(); }
  std::uint64_t mapping_memory_bytes() const override {
    return inner_.mapping_memory_bytes();
  }
  std::string name() const override { return inner_.name(); }
  void set_telemetry(esp::telemetry::Sink* sink) override {
    inner_.set_telemetry(sink);
  }
  void collect_health(
      std::span<esp::telemetry::BlockHealth> out) const override {
    inner_.collect_health(out);
  }
  std::uint64_t free_blocks() const override { return inner_.free_blocks(); }
  void save_state(esp::util::StateWriter& w) const override {
    inner_.save_state(w);
  }
  void load_state(esp::util::StateReader& r) override { inner_.load_state(r); }

  const FtlCallTotals& totals() const { return totals_; }
  void reset_totals() { totals_ = {}; }

 private:
  void charge(SpanKind kind, std::int64_t t0) {
    const std::int64_t t1 = wall_ns();
    const auto k = static_cast<std::size_t>(kind) -
                   static_cast<std::size_t>(SpanKind::kFtlWrite);
    ++totals_.calls[k];
    totals_.ns[k] += t1 - t0;
    spans_.add(kind, t0, t1);
  }

  esp::ftl::Ftl& inner_;
  SpanRecorder& spans_;
  FtlCallTotals totals_;
};

inline void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path, std::ios::out | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write span trace: " + path);
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int tid = s.kind == SpanKind::kRequest  ? 1
                    : s.kind == SpanKind::kDriver ? 2
                                                  : 3;
    os << "{\"name\":\"" << span_name(s.kind)
       << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
       << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"request\":" << s.request << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  if (!os) throw std::runtime_error("span trace write failed: " + path);
}

}  // namespace perfbench
