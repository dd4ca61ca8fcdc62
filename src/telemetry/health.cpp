#include "telemetry/health.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace esp::telemetry {
namespace {

// The smart line carries ~25 fields including a per-cause WAF object;
// 1024 leaves comfortable headroom (the journal's op lines fit in 768).
constexpr std::size_t kLineCap = 1024;

// Same round-trip contract as the journal: "%.10g" re-parses exactly for
// every time value this simulator produces. to_chars(general, 10) is
// specified to print exactly what printf "%.10g" prints (C locale) and is
// ~5x faster -- block rows carry an fp timestamp each, and a prod-geometry
// baseline epoch emits tens of thousands of them.
void fmt_time(char* out, std::size_t cap, SimTime t) {
  const auto res =
      std::to_chars(out, out + cap - 1, t, std::chars_format::general, 10);
  *res.ptr = '\0';
}

void append_u(std::string& s, std::uint64_t v) {
  char tmp[20];
  const auto res = std::to_chars(tmp, tmp + sizeof tmp, v);
  s.append(tmp, res.ptr);
}

}  // namespace

HealthMonitor::HealthMonitor(std::ostream& os, const HealthHeader& header,
                             bool resume)
    : os_(os),
      header_(header),
      total_blocks_(static_cast<std::size_t>(header.chips) *
                    header.blocks_per_chip),
      rows_(total_blocks_),
      emitted_(total_blocks_),
      gc_victims_(total_blocks_, 0),
      pe_scratch_(total_blocks_, 0) {
  if (resume) return;  // appending after a restore; hdr already on disk
  char interval_s[32];
  fmt_time(interval_s, sizeof interval_s, header_.interval_us);
  char buf[kLineCap];
  std::snprintf(buf, sizeof buf,
                "{\"v\":%d,\"t\":\"hdr\",\"kind\":\"health\",\"ftl\":\"%s\","
                "\"chips\":%u,\"blocks_per_chip\":%u,\"pages_per_block\":%u,"
                "\"subs\":%u,\"seed\":%llu,\"interval_us\":%s,"
                "\"rated_pe\":%u%s}",
                kSchemaVersion, header_.ftl.c_str(), header_.chips,
                header_.blocks_per_chip, header_.pages_per_block,
                header_.subpages_per_page,
                static_cast<unsigned long long>(header_.seed), interval_s,
                header_.rated_pe, header_.shard_tag().c_str());
  write_line(buf);
}

void HealthMonitor::write_line(const char* buf) {
  os_ << buf << '\n';
  ++lines_;
}

void HealthMonitor::start(SimTime now, const HealthTotals& totals) {
  last_epoch_us_ = now;
  next_due_us_ = now + header_.interval_us;
  base_ = totals;
}

std::span<BlockHealth> HealthMonitor::begin_epoch() {
  std::fill(rows_.begin(), rows_.end(), BlockHealth{});
  return rows_;
}

void HealthMonitor::append_block_row(std::size_t i, const BlockHealth& r) {
  out_buf_.append("{\"t\":\"b\",\"i\":");
  append_u(out_buf_, i);
  out_buf_.append(",\"pe\":");
  append_u(out_buf_, r.pe);
  out_buf_.append(",\"pool\":\"");
  out_buf_.append(health_pool_name(static_cast<HealthPool>(r.pool)));
  out_buf_.append("\",\"lvl\":");
  append_u(out_buf_, r.level);
  out_buf_.append(",\"pp\":");
  append_u(out_buf_, r.programmed_pages);
  out_buf_.append(",\"valid\":");
  append_u(out_buf_, r.valid);
  out_buf_.append(",\"cap\":");
  append_u(out_buf_, r.valid_cap);
  out_buf_.append(",\"gcv\":");
  append_u(out_buf_, r.gc_victims);
  if (r.first_program_us >= 0.0) {
    char fp_s[32];
    fmt_time(fp_s, sizeof fp_s, r.first_program_us);
    out_buf_.append(",\"fp\":");
    out_buf_.append(fp_s);
  }
  out_buf_.append("}\n");
  ++lines_;
}

void HealthMonitor::commit_epoch(SimTime now, std::uint64_t spare_blocks,
                                 const HealthTotals& totals) {
  if (finished_) return;

  char at_s[32];
  fmt_time(at_s, sizeof at_s, now);
  char buf[kLineCap];
  std::snprintf(buf, sizeof buf, "{\"t\":\"epoch\",\"i\":%llu,\"us\":%s}",
                static_cast<unsigned long long>(epochs_), at_s);
  out_buf_.clear();
  out_buf_.append(buf);
  out_buf_.push_back('\n');
  ++lines_;

  // Single pass: delta-emit changed rows, and gather the P/E distribution
  // into the dense scratch array (min/max/sum here, variance and Gini over
  // the scratch in emit_smart) so the wear statistics never re-walk the
  // 40-byte row structs.
  std::uint32_t pe_min = 0xFFFFFFFFu, pe_max = 0;
  double pe_sum = 0.0;
  for (std::size_t i = 0; i < total_blocks_; ++i) {
    rows_[i].gc_victims = gc_victims_[i];
    const std::uint32_t pe = rows_[i].pe;
    pe_scratch_[i] = pe;
    pe_min = std::min(pe_min, pe);
    pe_max = std::max(pe_max, pe);
    pe_sum += static_cast<double>(pe);
    if (rows_[i] == emitted_[i]) continue;
    append_block_row(i, rows_[i]);
    emitted_[i] = rows_[i];
  }
  emit_smart(now, spare_blocks, totals, pe_min, pe_max, pe_sum);
  os_.write(out_buf_.data(),
            static_cast<std::streamsize>(out_buf_.size()));

  ++epochs_;
  last_epoch_us_ = now;
  if (header_.interval_us > 0.0) {
    while (next_due_us_ <= now) next_due_us_ += header_.interval_us;
  }
  base_ = totals;
}

void HealthMonitor::emit_smart(SimTime now, std::uint64_t spare_blocks,
                               const HealthTotals& totals,
                               std::uint32_t pe_min, std::uint32_t pe_max,
                               double sum) {
  // Wear distribution over EVERY physical block (pristine ones included:
  // wear skew against never-touched spares is exactly what CoV/Gini
  // should expose). min/max/sum arrive from commit_epoch's gather pass;
  // everything below runs over the dense pe_scratch_ copy.
  const double n = static_cast<double>(total_blocks_);
  const double mean = total_blocks_ ? sum / n : 0.0;
  double var = 0.0;
  for (const std::uint32_t pe : pe_scratch_) {
    const double d = static_cast<double>(pe) - mean;
    var += d * d;
  }
  const double stddev = total_blocks_ ? std::sqrt(var / n) : 0.0;
  const double cov = mean > 0.0 ? stddev / mean : 0.0;

  // Gini over sorted P/E counts: G = (2 * sum(i * x_i) / (n * sum(x)))
  // - (n + 1) / n with 1-based ranks over ascending x. 0 = perfectly even.
  // P/E counts are small integers, so the sort is a counting sort: blocks
  // at value v occupy ranks rank+1 .. rank+c and contribute
  // v * (c * (2*rank + c + 1) / 2) to the rank-weighted sum (exact in
  // uint64: c and rank are block counts, v is bounded by pe_max).
  double gini = 0.0;
  if (sum > 0.0 && total_blocks_ > 0) {
    double weighted = 0.0;
    if (pe_max < (1u << 22)) {
      counts_.assign(static_cast<std::size_t>(pe_max) + 1, 0);
      for (const std::uint32_t pe : pe_scratch_) ++counts_[pe];
      std::uint64_t rank = 0;
      for (std::size_t v = 0; v <= pe_max; ++v) {
        const std::uint64_t c = counts_[v];
        if (!c) continue;
        weighted += static_cast<double>(v) *
                    static_cast<double>(c * (2 * rank + c + 1) / 2);
        rank += c;
      }
    } else {
      // Degenerate wear values (e.g. a huge synthetic rated_pe): fall back
      // to a comparison sort rather than allocating pe_max counters.
      std::vector<std::uint32_t> sorted(pe_scratch_);
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t i = 0; i < sorted.size(); ++i)
        weighted +=
            static_cast<double>(i + 1) * static_cast<double>(sorted[i]);
    }
    gini = (2.0 * weighted) / (n * sum) - (n + 1.0) / n;
  }

  // Windowed per-cause WAF decomposition in sector units (a full-page
  // program carries subpages_per_page sectors, a subpage program one).
  const std::uint64_t subs = header_.subpages_per_page;
  const auto win_sectors = [&](std::size_t c) {
    return (totals.prog_full[c] - base_.prog_full[c]) * subs +
           (totals.prog_sub[c] - base_.prog_sub[c]);
  };
  char waf[400];
  {
    std::size_t off = 0;
    off += std::snprintf(waf + off, sizeof waf - off, "{");
    for (std::size_t c = 0; c < kCauseCount; ++c) {
      const std::uint64_t sectors = win_sectors(c);
      off += std::snprintf(waf + off, sizeof waf - off, "%s\"%s\":%llu",
                           c == 0 ? "" : ",",
                           cause_name(static_cast<Cause>(c)),
                           static_cast<unsigned long long>(sectors));
      if (off >= sizeof waf) break;
    }
    if (off < sizeof waf) std::snprintf(waf + off, sizeof waf - off, "}");
  }
  std::uint64_t win_flash_sectors = 0;
  std::uint64_t win_erases = 0;
  for (std::size_t c = 0; c < kCauseCount; ++c) {
    win_flash_sectors += win_sectors(c);
    win_erases += totals.erases[c] - base_.erases[c];
  }
  const std::uint64_t win_host_sectors =
      totals.host_sectors - base_.host_sectors;
  const std::uint64_t win_retention_evict_sectors =
      totals.retention_evict_sectors - base_.retention_evict_sectors;
  const double overall_waf =
      win_host_sectors > 0
          ? static_cast<double>(win_flash_sectors) /
                static_cast<double>(win_host_sectors)
          : 1.0;

  const double window_s = (now - last_epoch_us_) / 1e6;
  const double retention_rate =
      window_s > 0.0
          ? static_cast<double>(win_retention_evict_sectors) / window_s
          : 0.0;

  // Projected P/E-exhaustion horizon: remaining rated erase budget across
  // the device divided by the window's erase rate. -1 = no erases this
  // window (no projection possible).
  double pe_budget = 0.0;
  for (const BlockHealth& r : rows_)
    if (r.pe < header_.rated_pe)
      pe_budget += static_cast<double>(header_.rated_pe - r.pe);
  const double erase_rate =
      window_s > 0.0 ? static_cast<double>(win_erases) / window_s : 0.0;
  const double horizon_s = erase_rate > 0.0 ? pe_budget / erase_rate : -1.0;

  const double media_wear_pct =
      header_.rated_pe > 0
          ? 100.0 * mean / static_cast<double>(header_.rated_pe)
          : 0.0;

  char at_s[32];
  fmt_time(at_s, sizeof at_s, now);
  char buf[kLineCap];
  std::snprintf(
      buf, sizeof buf,
      "{\"t\":\"smart\",\"i\":%llu,\"us\":%s,\"media_wear_pct\":%.10g,"
      "\"spare_blocks\":%llu,\"pe_min\":%u,\"pe_max\":%u,\"pe_mean\":%.10g,"
      "\"pe_stddev\":%.10g,\"wear_cov\":%.10g,\"wear_gini\":%.10g,"
      "\"host_sectors\":%llu,\"flash_sectors\":%llu,\"overall_waf\":%.10g,"
      "\"waf_sectors\":%s,\"erases\":%llu,"
      "\"retention_evict_sectors\":%llu,\"retention_evict_per_s\":%.10g,"
      "\"pe_horizon_s\":%.10g}",
      static_cast<unsigned long long>(epochs_), at_s, media_wear_pct,
      static_cast<unsigned long long>(spare_blocks), pe_min, pe_max, mean,
      stddev, cov, gini, static_cast<unsigned long long>(win_host_sectors),
      static_cast<unsigned long long>(win_flash_sectors), overall_waf, waf,
      static_cast<unsigned long long>(win_erases),
      static_cast<unsigned long long>(win_retention_evict_sectors),
      retention_rate, horizon_s);
  out_buf_.append(buf);
  out_buf_.push_back('\n');
  ++lines_;
}

void HealthMonitor::finish() {
  if (finished_) return;
  char buf[kLineCap];
  std::snprintf(buf, sizeof buf,
                "{\"t\":\"end\",\"epochs\":%llu,\"lines\":%llu}",
                static_cast<unsigned long long>(epochs_),
                static_cast<unsigned long long>(lines_ + 1));
  write_line(buf);
  os_.flush();
  finished_ = true;
}

void HealthMonitor::save_state(util::StateWriter& w) const {
  w.tag("HLTH");
  w.f64(next_due_us_);
  w.f64(last_epoch_us_);
  w.u64(epochs_);
  w.u64(lines_);
  w.pod_vec(emitted_);
  w.pod_vec(gc_victims_);
  w.raw(base_.prog_full, sizeof base_.prog_full);
  w.raw(base_.prog_sub, sizeof base_.prog_sub);
  w.raw(base_.erases, sizeof base_.erases);
  w.u64(base_.host_sectors);
  w.u64(base_.retention_evict_sectors);
}

void HealthMonitor::load_state(util::StateReader& r) {
  r.tag("HLTH");
  next_due_us_ = r.f64();
  last_epoch_us_ = r.f64();
  epochs_ = r.u64();
  lines_ = r.u64();
  std::vector<BlockHealth> emitted;
  r.pod_vec(emitted);
  if (emitted.size() != total_blocks_)
    throw std::runtime_error("HealthMonitor::load_state: geometry mismatch");
  emitted_ = std::move(emitted);
  std::vector<std::uint32_t> victims;
  r.pod_vec(victims);
  if (victims.size() != total_blocks_)
    throw std::runtime_error("HealthMonitor::load_state: geometry mismatch");
  gc_victims_ = std::move(victims);
  r.raw(base_.prog_full, sizeof base_.prog_full);
  r.raw(base_.prog_sub, sizeof base_.prog_sub);
  r.raw(base_.erases, sizeof base_.erases);
  base_.host_sectors = r.u64();
  base_.retention_evict_sectors = r.u64();
}

}  // namespace esp::telemetry
