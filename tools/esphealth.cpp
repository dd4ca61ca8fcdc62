// esphealth: analyzer for device-health snapshot streams (see
// docs/HEALTH.md and src/telemetry/health.h for the schema).
//
//   esphealth run_health.jsonl                    # full report
//   esphealth --heatmap age --bins 96 run_health.jsonl
//   esphealth --csv-out wear.csv --svg-out wear.svg run_health.jsonl
//   esphealth --check run_health.jsonl            # CI consistency gate
//
// Sections:
//   * blocks x epochs heatmap of a per-block metric (wear = P/E cycles,
//     valid = valid ratio, age = retention age since first program) --
//     terminal shading, optional CSV and SVG exports. Blocks are binned
//     into --bins columns; `--order pool` groups blocks by their
//     final-epoch pool so the subpage region separates visually from the
//     full-page region.
//   * per-pool wear table at the final epoch.
//   * per-epoch SMART trend table (wear %, CoV, Gini, WAF, spares,
//     horizon). CoV and Gini are RECOMPUTED from the reconstructed
//     per-block state and compared against the stream's own smart line --
//     `--check` turns any disagreement into a nonzero exit.
//   * health-trend projection: linear fit of media wear % over simulated
//     time, cross-checked against the stream's erase-rate horizon.
//
// The parser is the flat field scanner of jsonl_fields.h, shared with
// espreport. Unknown line types are counted and skipped (forward compat).
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.h"
#include "jsonl_fields.h"

namespace {

using namespace esp::jsonl;

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] HEALTH_STREAM.jsonl\n"
      "  --heatmap wear|valid|age  per-block metric to render (wear)\n"
      "  --bins N                  heatmap columns; blocks are averaged\n"
      "                            into N spatial bins (64)\n"
      "  --order device|pool       column order: physical device order, or\n"
      "                            grouped by final-epoch pool (device)\n"
      "  --csv-out PATH            write the binned epochs x bins matrix\n"
      "  --svg-out PATH            write an SVG heatmap\n"
      "  --check                   exit 1 unless the stream is complete\n"
      "                            (end trailer) and the smart CoV/Gini\n"
      "                            match recomputation from block rows\n",
      argv0);
}

// ---- stream reconstruction ------------------------------------------

struct Blk {
  std::uint32_t pe = 0;
  std::uint32_t pp = 0;          ///< programmed pages
  std::uint32_t valid = 0;
  std::uint32_t cap = 0;
  std::uint32_t gcv = 0;         ///< GC victim count
  double fp = -1.0;              ///< first-program timestamp, us (<0 = none)
  /// f(ree) F(ull) S(ub) L(og/fine). Default 'f': the delta encoder's
  /// baseline is the all-zero free row, so a block with no emitted rows is
  /// a free, never-programmed block.
  char pool = 'f';
  std::uint8_t lvl = 0;          ///< ESP level
};

struct Smart {
  double us = 0.0;
  double media_wear_pct = 0.0;
  std::uint64_t spare_blocks = 0;
  std::uint64_t pe_min = 0, pe_max = 0;
  double pe_mean = 0.0, pe_stddev = 0.0;
  double wear_cov = 0.0, wear_gini = 0.0;
  double overall_waf = 0.0;
  std::uint64_t erases = 0;
  double retention_evict_per_s = 0.0;
  double pe_horizon_s = -1.0;
};

struct Epoch {
  std::uint64_t index = 0;
  double us = 0.0;
  std::uint64_t rows_emitted = 0;
  std::vector<Blk> blocks;  ///< fully reconstructed state at this epoch
  Smart smart;
  bool have_smart = false;
};

struct Analysis {
  StreamHdr hdr;
  std::uint64_t rated_pe = 0;
  double interval_us = 0.0;

  std::vector<Epoch> epochs;
  std::uint64_t lines = 0, unknown_lines = 0, orphan_rows = 0;
  bool have_end = false;
  std::uint64_t end_epochs = 0, end_lines = 0;
};

char pool_char(const std::string& name) {
  if (name == "free") return 'f';
  if (name == "full") return 'F';
  if (name == "sub") return 'S';
  if (name == "fine") return 'L';
  return '?';
}

bool analyze(const std::string& path, Analysis* a) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "esphealth: cannot open %s\n", path.c_str());
    return false;
  }
  std::vector<Blk> state;  // carried across epochs (delta decode)
  std::string line;
  while (std::getline(is, line)) {
    ++a->lines;
    std::string t;
    if (!find_str(line, "t", &t)) {
      ++a->unknown_lines;
      continue;
    }
    if (t == "hdr") {
      a->hdr.read(line);
      find_u64(line, "rated_pe", &a->rated_pe);
      find_double(line, "interval_us", &a->interval_us);
      state.assign(a->hdr.total_blocks(), Blk{});
    } else if (t == "epoch") {
      Epoch e;
      find_u64(line, "i", &e.index);
      find_double(line, "us", &e.us);
      a->epochs.push_back(std::move(e));
    } else if (t == "b") {
      if (a->epochs.empty()) {
        ++a->orphan_rows;
        continue;
      }
      std::uint64_t i = 0;
      find_u64(line, "i", &i);
      if (i >= state.size()) {
        ++a->orphan_rows;
        continue;
      }
      Blk& b = state[i];
      std::uint64_t v = 0;
      if (find_u64(line, "pe", &v)) b.pe = static_cast<std::uint32_t>(v);
      if (find_u64(line, "pp", &v)) b.pp = static_cast<std::uint32_t>(v);
      if (find_u64(line, "valid", &v)) b.valid = static_cast<std::uint32_t>(v);
      if (find_u64(line, "cap", &v)) b.cap = static_cast<std::uint32_t>(v);
      if (find_u64(line, "gcv", &v)) b.gcv = static_cast<std::uint32_t>(v);
      if (find_u64(line, "lvl", &v)) b.lvl = static_cast<std::uint8_t>(v);
      std::string pool;
      if (find_str(line, "pool", &pool)) b.pool = pool_char(pool);
      // "fp" is omitted when the block has no live first program; a row
      // line always carries the COMPLETE new state, so absence means
      // "none", not "unchanged".
      double fp = -1.0;
      b.fp = find_double(line, "fp", &fp) ? fp : -1.0;
      ++a->epochs.back().rows_emitted;
    } else if (t == "smart") {
      if (a->epochs.empty()) {
        ++a->orphan_rows;
        continue;
      }
      Epoch& e = a->epochs.back();
      Smart& s = e.smart;
      find_double(line, "us", &s.us);
      find_double(line, "media_wear_pct", &s.media_wear_pct);
      find_u64(line, "spare_blocks", &s.spare_blocks);
      find_u64(line, "pe_min", &s.pe_min);
      find_u64(line, "pe_max", &s.pe_max);
      find_double(line, "pe_mean", &s.pe_mean);
      find_double(line, "pe_stddev", &s.pe_stddev);
      find_double(line, "wear_cov", &s.wear_cov);
      find_double(line, "wear_gini", &s.wear_gini);
      find_double(line, "overall_waf", &s.overall_waf);
      find_u64(line, "erases", &s.erases);
      find_double(line, "retention_evict_per_s", &s.retention_evict_per_s);
      find_double(line, "pe_horizon_s", &s.pe_horizon_s);
      e.have_smart = true;
      // The smart line closes the epoch: snapshot reconstructed state.
      e.blocks = state;
    } else if (t == "end") {
      a->have_end = true;
      find_u64(line, "epochs", &a->end_epochs);
      find_u64(line, "lines", &a->end_lines);
    } else {
      ++a->unknown_lines;
    }
  }
  // An epoch without its smart line (truncated stream) still gets the
  // state reconstructed so far.
  for (Epoch& e : a->epochs)
    if (e.blocks.empty()) e.blocks = state;
  return true;
}

// ---- metrics, binning, rendering ------------------------------------

enum class Metric { kWear, kValid, kAge };

double metric_value(const Blk& b, Metric m, double epoch_us) {
  switch (m) {
    case Metric::kWear:
      return static_cast<double>(b.pe);
    case Metric::kValid:
      return b.cap ? static_cast<double>(b.valid) / b.cap : 0.0;
    case Metric::kAge:
      return b.fp >= 0.0 ? (epoch_us - b.fp) / 1e6 : 0.0;  // seconds
  }
  return 0.0;
}

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::kWear: return "wear (P/E cycles)";
    case Metric::kValid: return "valid ratio";
    case Metric::kAge: return "retention age (s)";
  }
  return "?";
}

/// epochs x bins matrix of bin-averaged metric values, plus a per-bin
/// majority pool letter for the final epoch.
struct Heatmap {
  std::size_t bins = 0;
  std::vector<double> us;              ///< per epoch
  std::vector<std::vector<double>> rows;
  std::vector<char> final_pools;       ///< per bin
  double vmax = 0.0;
};

Heatmap build_heatmap(const Analysis& a, Metric m, std::size_t bins,
                      const std::vector<std::uint32_t>& order) {
  Heatmap h;
  const std::size_t n = order.size();
  h.bins = std::min<std::size_t>(bins, n ? n : 1);
  for (const Epoch& e : a.epochs) {
    std::vector<double> row(h.bins, 0.0);
    std::vector<std::uint32_t> count(h.bins, 0);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t bin = k * h.bins / n;
      row[bin] += metric_value(e.blocks[order[k]], m, e.us);
      ++count[bin];
    }
    for (std::size_t b = 0; b < h.bins; ++b) {
      if (count[b]) row[b] /= count[b];
      h.vmax = std::max(h.vmax, row[b]);
    }
    h.us.push_back(e.us);
    h.rows.push_back(std::move(row));
  }
  if (!a.epochs.empty()) {
    const Epoch& last = a.epochs.back();
    for (std::size_t b = 0; b < h.bins; ++b) {
      int tally[4] = {0, 0, 0, 0};  // f F S L
      const std::size_t lo = b * n / h.bins, hi = (b + 1) * n / h.bins;
      for (std::size_t k = lo; k < hi; ++k) {
        switch (last.blocks[order[k]].pool) {
          case 'f': ++tally[0]; break;
          case 'F': ++tally[1]; break;
          case 'S': ++tally[2]; break;
          case 'L': ++tally[3]; break;
        }
      }
      const int best =
          static_cast<int>(std::max_element(tally, tally + 4) - tally);
      h.final_pools.push_back("fFSL"[best]);
    }
  }
  return h;
}

void print_heatmap(const Heatmap& h, Metric m) {
  static const char kShades[] = " .:-=+*#%@";
  std::printf("\nheatmap: %s -- rows = epochs (sim time), cols = %zu block "
              "bins\nscale: ' '=0 .. '@'=%.4g\n\n",
              metric_name(m), h.bins, h.vmax);
  for (std::size_t e = 0; e < h.rows.size(); ++e) {
    std::printf("%10.3fs |", h.us[e] / 1e6);
    for (const double v : h.rows[e]) {
      const int idx =
          h.vmax > 0.0
              ? std::min(9, static_cast<int>(v / h.vmax * 9.0 + 0.5))
              : 0;
      std::putchar(kShades[idx]);
    }
    std::printf("|\n");
  }
  std::printf("%10s |", "pool");
  for (const char c : h.final_pools) std::putchar(c);
  std::printf("| (majority per bin at final epoch: f=free F=full S=sub "
              "L=fine)\n");
}

bool write_csv(const Heatmap& h, Metric m, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "esphealth: cannot open %s\n", path.c_str());
    return false;
  }
  os << "# metric: " << metric_name(m) << "\nus";
  for (std::size_t b = 0; b < h.bins; ++b) os << ",bin" << b;
  os << "\n";
  char buf[32];
  for (std::size_t e = 0; e < h.rows.size(); ++e) {
    std::snprintf(buf, sizeof buf, "%.10g", h.us[e]);
    os << buf;
    for (const double v : h.rows[e]) {
      std::snprintf(buf, sizeof buf, ",%.10g", v);
      os << buf;
    }
    os << "\n";
  }
  return os.good();
}

bool write_svg(const Heatmap& h, Metric m, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "esphealth: cannot open %s\n", path.c_str());
    return false;
  }
  const int cell_w = 4, cell_h = 12, margin = 2;
  const int w = margin * 2 + cell_w * static_cast<int>(h.bins);
  const int rows = static_cast<int>(h.rows.size()) + 1;  // + pool strip
  const int ht = margin * 2 + cell_h * rows;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w
     << "\" height=\"" << ht << "\">\n<title>" << metric_name(m)
     << "</title>\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  for (std::size_t e = 0; e < h.rows.size(); ++e) {
    for (std::size_t b = 0; b < h.bins; ++b) {
      const double t = h.vmax > 0.0 ? h.rows[e][b] / h.vmax : 0.0;
      // Cold blue -> hot red ramp.
      const int r = static_cast<int>(255 * t);
      const int g = static_cast<int>(64 * (1.0 - t));
      const int bl = static_cast<int>(255 * (1.0 - t));
      os << "<rect x=\"" << margin + cell_w * static_cast<int>(b) << "\" y=\""
         << margin + cell_h * static_cast<int>(e) << "\" width=\"" << cell_w
         << "\" height=\"" << cell_h << "\" fill=\"rgb(" << r << "," << g
         << "," << bl << ")\"/>\n";
    }
  }
  // Pool strip under the map: free white, full green, sub orange, fine
  // purple -- the subpage region must separate visually from full-page.
  for (std::size_t b = 0; b < h.final_pools.size(); ++b) {
    const char* fill = "#ffffff";
    switch (h.final_pools[b]) {
      case 'F': fill = "#2e8b57"; break;
      case 'S': fill = "#ff8c00"; break;
      case 'L': fill = "#8a2be2"; break;
    }
    os << "<rect x=\"" << margin + cell_w * static_cast<int>(b) << "\" y=\""
       << margin + cell_h * static_cast<int>(h.rows.size()) << "\" width=\""
       << cell_w << "\" height=\"" << cell_h << "\" fill=\"" << fill
       << "\"/>\n";
  }
  os << "</svg>\n";
  return os.good();
}

// ---- SMART cross-checks and trend -----------------------------------

struct Recomputed {
  double cov = 0.0;
  double gini = 0.0;
  double mean = 0.0;
};

Recomputed recompute_wear(const std::vector<Blk>& blocks) {
  Recomputed r;
  const std::size_t n = blocks.size();
  if (!n) return r;
  std::vector<double> pe(n);
  for (std::size_t i = 0; i < n; ++i) pe[i] = blocks[i].pe;
  const double sum = std::accumulate(pe.begin(), pe.end(), 0.0);
  r.mean = sum / static_cast<double>(n);
  double var = 0.0;
  for (const double v : pe) var += (v - r.mean) * (v - r.mean);
  var /= static_cast<double>(n);
  r.cov = r.mean > 0.0 ? std::sqrt(var) / r.mean : 0.0;
  std::sort(pe.begin(), pe.end());
  double weighted = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    weighted += static_cast<double>(i + 1) * pe[i];
  r.gini = sum > 0.0 ? 2.0 * weighted / (static_cast<double>(n) * sum) -
                           (static_cast<double>(n) + 1.0) /
                               static_cast<double>(n)
                     : 0.0;
  return r;
}

struct Trend {
  bool valid = false;
  double wear_pct_per_hour = 0.0;  ///< simulated hours
  double projected_exhaustion_s = -1.0;
};

Trend fit_trend(const Analysis& a) {
  Trend t;
  // Least squares of media_wear_pct over simulated seconds.
  std::vector<std::pair<double, double>> pts;
  for (const Epoch& e : a.epochs)
    if (e.have_smart) pts.emplace_back(e.us / 1e6, e.smart.media_wear_pct);
  if (pts.size() < 2) return t;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : pts) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(pts.size());
  const double denom = n * sxx - sx * sx;
  if (denom <= 0.0) return t;
  const double slope = (n * sxy - sx * sy) / denom;  // %/s
  t.valid = true;
  t.wear_pct_per_hour = slope * 3600.0;
  if (slope > 0.0) {
    const double last_s = pts.back().first;
    const double last_pct = pts.back().second;
    t.projected_exhaustion_s = last_s + (100.0 - last_pct) / slope;
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  Metric metric = Metric::kWear;
  std::size_t bins = 64;
  bool order_by_pool = false;
  bool check = false;
  std::string csv_out, svg_out, path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--heatmap" && i + 1 < argc) {
      const std::string m = argv[++i];
      if (m == "wear") metric = Metric::kWear;
      else if (m == "valid") metric = Metric::kValid;
      else if (m == "age") metric = Metric::kAge;
      else {
        std::fprintf(stderr, "--heatmap must be wear|valid|age\n");
        return 2;
      }
    } else if (arg == "--bins" && i + 1 < argc) {
      try {
        bins = std::max<std::size_t>(
            1, esp::core::parse_number<std::size_t>(arg, argv[++i]));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (arg == "--order" && i + 1 < argc) {
      const std::string o = argv[++i];
      if (o == "device") order_by_pool = false;
      else if (o == "pool") order_by_pool = true;
      else {
        std::fprintf(stderr, "--order must be device|pool\n");
        return 2;
      }
    } else if (arg == "--csv-out" && i + 1 < argc) {
      csv_out = argv[++i];
    } else if (arg == "--svg-out" && i + 1 < argc) {
      svg_out = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (path.empty()) {
    usage(argv[0]);
    return 2;
  }

  Analysis a;
  if (!analyze(path, &a)) return 1;
  if (!a.hdr.present) {
    std::fprintf(stderr, "esphealth: %s has no health header\n", path.c_str());
    return 1;
  }
  if (a.epochs.empty()) {
    std::fprintf(stderr, "esphealth: %s has no epochs\n", path.c_str());
    return 1;
  }

  std::printf("health stream: %s\n", path.c_str());
  std::printf("  ftl %s, %" PRIu64 " chips x %" PRIu64 " blocks x %" PRIu64
              " pages, %" PRIu64 " subpages, seed %" PRIu64 "\n",
              a.hdr.ftl.c_str(), a.hdr.chips, a.hdr.blocks_per_chip,
              a.hdr.pages_per_block, a.hdr.subs, a.hdr.seed);
  std::printf("  %zu epochs, interval %.6gs, rated P/E %" PRIu64 "\n",
              a.epochs.size(), a.interval_us / 1e6, a.rated_pe);

  // Column order: physical, or grouped by final-epoch pool (free, full,
  // sub, fine) with device order inside each group.
  std::vector<std::uint32_t> order(a.hdr.total_blocks());
  std::iota(order.begin(), order.end(), 0u);
  if (order_by_pool) {
    const std::vector<Blk>& last = a.epochs.back().blocks;
    const auto rank = [](char p) {
      switch (p) {
        case 'f': return 0;
        case 'F': return 1;
        case 'S': return 2;
        case 'L': return 3;
      }
      return 4;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return rank(last[x].pool) < rank(last[y].pool);
                     });
  }

  const Heatmap h = build_heatmap(a, metric, bins, order);
  print_heatmap(h, metric);

  // Per-pool wear at the final epoch.
  {
    const std::vector<Blk>& last = a.epochs.back().blocks;
    std::printf("\nper-pool wear at final epoch:\n");
    std::printf("  %-6s %8s %10s %10s %10s %12s\n", "pool", "blocks",
                "pe_mean", "pe_max", "valid%", "gc_victims");
    const char pools[] = {'f', 'F', 'S', 'L'};
    const char* names[] = {"free", "full", "sub", "fine"};
    for (int p = 0; p < 4; ++p) {
      std::uint64_t count = 0, pe_sum = 0, pe_max = 0, gcv = 0;
      std::uint64_t valid = 0, cap = 0;
      for (const Blk& b : last) {
        if (b.pool != pools[p]) continue;
        ++count;
        pe_sum += b.pe;
        pe_max = std::max<std::uint64_t>(pe_max, b.pe);
        gcv += b.gcv;
        valid += b.valid;
        cap += b.cap;
      }
      if (!count) continue;
      std::printf("  %-6s %8" PRIu64 " %10.2f %10" PRIu64 " %9.1f%% %12" PRIu64
                  "\n",
                  names[p], count,
                  static_cast<double>(pe_sum) / static_cast<double>(count),
                  pe_max,
                  cap ? 100.0 * static_cast<double>(valid) /
                            static_cast<double>(cap)
                      : 0.0,
                  gcv);
    }
  }

  // Per-epoch SMART trend with CoV/Gini recomputation.
  bool smart_consistent = true;
  std::printf("\nSMART trend (CoV/Gini recomputed from block rows):\n");
  std::printf("  %10s %8s %8s %8s %9s %9s %9s %8s %10s\n", "sim_s", "wear%",
              "pe_mean", "spare", "cov", "cov_rec", "gini", "gini_rec",
              "waf");
  for (const Epoch& e : a.epochs) {
    if (!e.have_smart) continue;
    const Recomputed r = recompute_wear(e.blocks);
    const bool cov_ok = std::fabs(r.cov - e.smart.wear_cov) < 1e-6;
    const bool gini_ok = std::fabs(r.gini - e.smart.wear_gini) < 1e-6;
    smart_consistent &= cov_ok && gini_ok;
    std::printf("  %10.3f %8.3f %8.2f %8" PRIu64 " %9.4f %9.4f %9.4f %8.4f "
                "%10.4f%s\n",
                e.us / 1e6, e.smart.media_wear_pct, e.smart.pe_mean,
                e.smart.spare_blocks, e.smart.wear_cov, r.cov,
                e.smart.wear_gini, r.gini, e.smart.overall_waf,
                cov_ok && gini_ok ? "" : "  MISMATCH");
  }

  // Trend projection vs the stream's own erase-rate horizon.
  const Trend trend = fit_trend(a);
  std::printf("\nhealth-trend projection:\n");
  if (trend.valid && trend.wear_pct_per_hour > 0.0) {
    std::printf("  media wear slope: %.4g %% per simulated hour\n",
                trend.wear_pct_per_hour);
    std::printf("  projected P/E exhaustion: %.4g simulated s\n",
                trend.projected_exhaustion_s);
  } else {
    std::printf("  (needs >= 2 epochs with increasing wear)\n");
  }
  const Smart& last_smart = a.epochs.back().smart;
  if (last_smart.pe_horizon_s >= 0.0)
    std::printf("  stream erase-rate horizon: %.4g simulated s%s\n",
                a.epochs.back().us / 1e6 + last_smart.pe_horizon_s,
                trend.valid && trend.projected_exhaustion_s > 0.0
                    ? "  (cross-check: linear fit above)"
                    : "");

  if (!csv_out.empty()) {
    if (!write_csv(h, metric, csv_out)) return 1;
    std::printf("\ncsv: wrote %s (%zu epochs x %zu bins)\n", csv_out.c_str(),
                h.rows.size(), h.bins);
  }
  if (!svg_out.empty()) {
    if (!write_svg(h, metric, svg_out)) return 1;
    std::printf("svg: wrote %s\n", svg_out.c_str());
  }

  std::printf("\nstream: %" PRIu64 " lines", a.lines);
  if (a.have_end)
    std::printf(", trailer: %" PRIu64 " epochs, %" PRIu64 " lines",
                a.end_epochs, a.end_lines);
  else
    std::printf(", NO end trailer (run did not finish cleanly)");
  if (a.unknown_lines) std::printf(", %" PRIu64 " unknown", a.unknown_lines);
  if (a.orphan_rows) std::printf(", %" PRIu64 " orphan rows", a.orphan_rows);
  std::printf("\n");

  if (check) {
    bool ok = true;
    if (!a.have_end) {
      std::fprintf(stderr, "esphealth: CHECK FAIL: missing end trailer\n");
      ok = false;
    }
    if (a.have_end && a.end_lines != a.lines) {
      std::fprintf(stderr,
                   "esphealth: CHECK FAIL: trailer says %" PRIu64
                   " lines, stream has %" PRIu64 "\n",
                   a.end_lines, a.lines);
      ok = false;
    }
    if (!smart_consistent) {
      std::fprintf(stderr,
                   "esphealth: CHECK FAIL: smart CoV/Gini disagree with "
                   "recomputation from block rows\n");
      ok = false;
    }
    if (a.orphan_rows) {
      std::fprintf(stderr, "esphealth: CHECK FAIL: %" PRIu64 " orphan rows\n",
                   a.orphan_rows);
      ok = false;
    }
    std::printf("check: %s\n", ok ? "PASS" : "FAIL");
    if (!ok) return 1;
  }
  return 0;
}
