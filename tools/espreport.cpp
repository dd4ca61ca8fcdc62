// espreport: analyzer for causal-attribution journals (see
// docs/TELEMETRY.md and src/telemetry/journal.h for the schema).
//
//   espreport run.jsonl                     # full report
//   espreport --waf-table run1.jsonl ...    # per-cause WAF tables only
//   espreport --chrome-out gc.json run.jsonl
//
// Sections:
//   * per-cause WAF decomposition -- integer program/erase counts per
//     cause, the flash bytes they imply, and each cause's share of the
//     write amplification. The total row's WAF equals flash/host bytes.
//     `--waf-table` prints ONLY this section, with byte-stable formatting
//     (pure integer arithmetic plus one deterministic division), so CI can
//     diff it against a committed golden file.
//   * block lifecycle -- event counts, per-pool erases, sub<->full
//     conversions, ending P/E spread.
//   * mechanism episodes -- cause-scope (B/E) spans paired into episodes
//     (GC, RMW, flush, ...): count, total and max simulated duration.
//   * journal accounting -- line counts and the end trailer's truncation.
//
// The parser is the flat field scanner of jsonl_fields.h, not a general
// JSON parser. Unknown line types are counted and skipped (forward
// compat).
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "jsonl_fields.h"
#include "telemetry/causes.h"
#include "telemetry/forensics.h"
#include "telemetry/json.h"

namespace {

using namespace esp;
using namespace esp::jsonl;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--waf-table] [--chrome-out PATH] JOURNAL...\n"
               "       %s --blame-table FORENSICS...\n"
               "  --waf-table        print only the per-cause WAF table(s)\n"
               "                     (byte-stable; used for golden diffs)\n"
               "  --blame-table      analyze tail-latency forensics streams\n"
               "                     (docs/FORENSICS.md) instead of journals:\n"
               "                     p99 phase-blame shares + the slowest-N\n"
               "                     exemplars, re-ranked deterministically\n"
               "                     across concatenated shard sidecars\n"
               "                     (byte-stable; used for golden diffs)\n"
               "  --chrome-out PATH  export mechanism episodes of the LAST\n"
               "                     journal as a Chrome trace_event file\n",
               argv0, argv0);
}

// ---- per-journal analysis -------------------------------------------

struct CauseTally {
  std::uint64_t prog_full = 0;
  std::uint64_t prog_sub = 0;
  std::uint64_t erase = 0;
};

struct Episode {
  std::string cause;
  std::uint64_t detail = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  int depth = 0;  ///< nesting level at open (0 = outermost)
};

struct EpisodeStats {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

struct Analysis {
  StreamHdr hdr;

  // Host lane.
  std::uint64_t host_write_requests = 0;
  std::uint64_t host_write_sectors = 0;
  std::uint64_t host_trims = 0, host_flushes = 0;

  // Flash ops by cause (insertion-ordered by the canonical taxonomy).
  std::map<std::string, CauseTally> by_cause;

  // Block lifecycle.
  std::map<std::string, std::uint64_t> blk_events;  ///< by event name
  std::map<std::string, std::uint64_t> erases_by_pool;
  std::map<std::string, std::uint64_t> conversions;  ///< "from->to"
  std::uint64_t max_pe = 0;

  // Mechanism episodes from scope B/E pairing.
  std::vector<Episode> episodes;
  std::map<std::string, EpisodeStats> episode_stats;
  std::uint64_t unmatched_scopes = 0;

  // Accounting.
  std::uint64_t lines = 0, unknown_lines = 0;
  bool have_end = false;
  std::uint64_t end_events = 0, end_truncated = 0;
};

bool analyze(const std::string& path, Analysis* a) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "espreport: cannot open %s\n", path.c_str());
    return false;
  }
  // Seed the cause map in taxonomy order so table rows are stably ordered
  // even for causes a run never exercised.
  for (std::size_t c = 0; c < telemetry::kCauseCount; ++c)
    a->by_cause[telemetry::cause_name(static_cast<telemetry::Cause>(c))];

  std::vector<Episode> open;  // scope stack
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
    } else if (t == "host") {
      std::string op;
      find_str(line, "op", &op);
      if (op == "host_write") {
        ++a->host_write_requests;
        std::uint64_t sectors = 0;
        find_u64(line, "sectors", &sectors);
        a->host_write_sectors += sectors;
      } else if (op == "host_trim") {
        ++a->host_trims;
      } else if (op == "host_flush") {
        ++a->host_flushes;
      }
    } else if (t == "op") {
      std::string op, cause;
      find_str(line, "op", &op);
      find_str(line, "cause", &cause);
      CauseTally& tally = a->by_cause[cause];
      if (op == "prog_full") ++tally.prog_full;
      else if (op == "prog_sub") ++tally.prog_sub;
      else if (op == "erase") {
        ++tally.erase;
        std::uint64_t pe = 0;
        find_u64(line, "pe", &pe);
        a->max_pe = std::max(a->max_pe, pe);
      }
    } else if (t == "mech") {
      // Mechanism spans are summarized via their enclosing scopes; the
      // raw lines need no standalone tally here.
    } else if (t == "scope") {
      std::string ph, cause;
      find_str(line, "ph", &ph);
      find_str(line, "cause", &cause);
      double us = 0.0;
      find_double(line, "us", &us);
      if (ph == "B") {
        Episode e;
        e.cause = cause;
        find_u64(line, "detail", &e.detail);
        e.start_us = us;
        e.depth = static_cast<int>(open.size());
        open.push_back(e);
      } else if (ph == "E") {
        if (open.empty() || open.back().cause != cause) {
          ++a->unmatched_scopes;
          continue;
        }
        Episode e = open.back();
        open.pop_back();
        e.dur_us = us - e.start_us;
        EpisodeStats& s = a->episode_stats[e.cause];
        ++s.count;
        s.total_us += e.dur_us;
        s.max_us = std::max(s.max_us, e.dur_us);
        a->episodes.push_back(std::move(e));
      }
    } else if (t == "blk") {
      std::string ev, pool;
      find_str(line, "ev", &ev);
      find_str(line, "pool", &pool);
      ++a->blk_events[ev];
      if (ev == "erased") {
        ++a->erases_by_pool[pool];
        std::uint64_t pe = 0;
        find_u64(line, "pe", &pe);
        a->max_pe = std::max(a->max_pe, pe);
      } else if (ev == "converted") {
        std::string from;
        find_str(line, "from", &from);
        ++a->conversions[from + "->" + pool];
      }
    } else if (t == "end") {
      a->have_end = true;
      find_u64(line, "events", &a->end_events);
      find_u64(line, "truncated", &a->end_truncated);
    } else {
      ++a->unknown_lines;
    }
  }
  a->unmatched_scopes += open.size();  // still-open scopes at EOF
  return true;
}

// ---- report sections ------------------------------------------------

/// Per-cause WAF decomposition. Byte-stable: integer counts, integer
/// flash bytes, and one division printed with fixed precision.
void print_waf_table(const Analysis& a, const std::string& path) {
  // Basename only: golden files must not depend on where CI puts the
  // journal.
  const std::size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  std::printf("# %s  ftl=%s  seed=%" PRIu64 "\n", base.c_str(),
              a.hdr.ftl.c_str(), a.hdr.seed);
  const std::uint64_t sub_bytes =
      a.hdr.subs ? a.hdr.page_bytes / a.hdr.subs : 0;
  const std::uint64_t host_bytes = a.host_write_sectors * sub_bytes;
  std::printf("host writes: %" PRIu64 " requests, %" PRIu64
              " sectors, %" PRIu64 " bytes\n",
              a.host_write_requests, a.host_write_sectors, host_bytes);
  std::printf("%-18s %10s %10s %8s %14s %10s\n", "cause", "prog_full",
              "prog_sub", "erase", "flash_bytes", "waf_share");
  CauseTally total;
  for (const auto& [cause, tally] : a.by_cause) {
    const std::uint64_t bytes =
        tally.prog_full * a.hdr.page_bytes + tally.prog_sub * sub_bytes;
    std::printf("%-18s %10" PRIu64 " %10" PRIu64 " %8" PRIu64 " %14" PRIu64
                " %10.6f\n",
                cause.c_str(), tally.prog_full, tally.prog_sub, tally.erase,
                bytes,
                host_bytes ? static_cast<double>(bytes) /
                                 static_cast<double>(host_bytes)
                           : 0.0);
    total.prog_full += tally.prog_full;
    total.prog_sub += tally.prog_sub;
    total.erase += tally.erase;
  }
  const std::uint64_t total_bytes =
      total.prog_full * a.hdr.page_bytes + total.prog_sub * sub_bytes;
  std::printf("%-18s %10" PRIu64 " %10" PRIu64 " %8" PRIu64 " %14" PRIu64
              " %10.6f\n",
              "total", total.prog_full, total.prog_sub, total.erase,
              total_bytes,
              host_bytes ? static_cast<double>(total_bytes) /
                               static_cast<double>(host_bytes)
                         : 0.0);
}

void print_full(const Analysis& a, const std::string& path) {
  print_waf_table(a, path);

  std::printf("\nblock lifecycle:\n");
  for (const auto& [ev, count] : a.blk_events)
    std::printf("  %-16s %10" PRIu64 "\n", ev.c_str(), count);
  for (const auto& [pool, count] : a.erases_by_pool)
    std::printf("  erases in pool %-8s %8" PRIu64 "\n", pool.c_str(), count);
  for (const auto& [conv, count] : a.conversions)
    std::printf("  conversions %-12s %7" PRIu64 "\n", conv.c_str(), count);
  std::printf("  max P/E cycles   %10" PRIu64 "\n", a.max_pe);

  std::printf("\nmechanism episodes (cause scopes):\n");
  if (a.episode_stats.empty()) std::printf("  (none)\n");
  for (const auto& [cause, s] : a.episode_stats)
    std::printf("  %-18s %8" PRIu64 " episodes, total %.1f us, max %.1f us\n",
                cause.c_str(), s.count, s.total_us, s.max_us);
  if (a.unmatched_scopes)
    std::printf("  unmatched scope lines: %" PRIu64
                " (journal truncated mid-episode?)\n",
                a.unmatched_scopes);

  std::printf("\njournal: %" PRIu64 " lines", a.lines);
  if (a.have_end)
    std::printf(", trailer: %" PRIu64 " events, %" PRIu64 " truncated",
                a.end_events, a.end_truncated);
  else
    std::printf(", NO end trailer (run did not finish cleanly)");
  if (a.unknown_lines)
    std::printf(", %" PRIu64 " unknown lines", a.unknown_lines);
  std::printf("\n");
}

// ---- forensics blame tables -----------------------------------------

/// One retained exemplar parsed off an "ex" line. The raw response string
/// is kept verbatim so re-printing it is byte-exact regardless of
/// float-formatting round trips.
struct BlameExemplar {
  std::uint64_t req = 0;
  std::string op;
  std::string response_raw;
  double response = 0.0;
  std::array<double, telemetry::kPhaseCount> phase_us{};
};

struct BlameAnalysis {
  StreamHdr hdr;  ///< the first section's
  std::uint64_t top_k = 0;
  std::uint64_t sections = 0;  ///< hdr count (> 1 for shard sidecar concats)
  std::uint64_t windows = 0;
  std::uint64_t requests = 0;
  std::uint64_t tail_requests = 0;
  /// Summed per-phase tail microseconds across every blame window, in
  /// file order (deterministic accumulation).
  std::array<double, telemetry::kPhaseCount> tail_phase_us{};
  std::vector<BlameExemplar> exemplars;
  std::uint64_t reconcile_failures = 0;
  std::uint64_t lines = 0, unknown_lines = 0;
};

/// Extracts the eight "<phase>_us" fields of a blame/ex line (they live in
/// a flat nested object, so substring extraction still works).
void find_phases(const std::string& line,
                 std::array<double, telemetry::kPhaseCount>* out) {
  for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p) {
    const std::string key =
        std::string(telemetry::phase_name(static_cast<telemetry::Phase>(p))) +
        "_us";
    find_double(line, key.c_str(), &(*out)[p]);
  }
}

bool analyze_blame(const std::string& path, BlameAnalysis* a) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "espreport: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(is, line)) {
    ++a->lines;
    std::string t;
    if (!find_str(line, "t", &t)) {
      ++a->unknown_lines;
      continue;
    }
    if (t == "hdr") {
      std::string stream;
      if (!find_str(line, "stream", &stream) || stream != "forensics") {
        std::fprintf(stderr,
                     "espreport: %s is not a forensics stream (use "
                     "--blame-table on --forensics-out files)\n",
                     path.c_str());
        return false;
      }
      ++a->sections;
      if (!a->hdr.present) {
        a->hdr.read(line);
        find_u64(line, "top_k", &a->top_k);
      }
    } else if (t == "blame") {
      std::uint64_t n = 0;
      find_u64(line, "requests", &n);
      a->requests += n;
      n = 0;
      find_u64(line, "tail_requests", &n);
      a->tail_requests += n;
      ++a->windows;
      std::array<double, telemetry::kPhaseCount> phases{};
      find_phases(line, &phases);
      for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p)
        a->tail_phase_us[p] += phases[p];
    } else if (t == "ex") {
      BlameExemplar ex;
      find_u64(line, "req", &ex.req);
      find_str(line, "op", &ex.op);
      find_raw(line, "response_us", &ex.response_raw);
      ex.response = std::strtod(ex.response_raw.c_str(), nullptr);
      find_phases(line, &ex.phase_us);
      a->exemplars.push_back(std::move(ex));
    } else if (t == "end") {
      std::uint64_t n = 0;
      find_u64(line, "reconcile_failures", &n);
      a->reconcile_failures += n;
    } else if (t != "tnt") {
      ++a->unknown_lines;
    }
  }
  // Deterministic merged ranking: concatenated shard sidecars contribute
  // their per-shard top-Ks; re-sort slowest-first with the stream's own
  // tie-break (response desc, request id asc) and keep the global top-K.
  std::sort(a->exemplars.begin(), a->exemplars.end(),
            [](const BlameExemplar& x, const BlameExemplar& y) {
              if (x.response != y.response) return x.response > y.response;
              return x.req < y.req;
            });
  if (a->top_k > 0 && a->exemplars.size() > a->top_k)
    a->exemplars.resize(a->top_k);
  return true;
}

/// Byte-stable blame report: integer counts plus fixed-precision shares.
void print_blame_table(const BlameAnalysis& a, const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  std::printf("# %s  ftl=%s  seed=%" PRIu64 "\n", base.c_str(),
              a.hdr.ftl.c_str(), a.hdr.seed);
  std::printf("sections: %" PRIu64 ", windows: %" PRIu64 ", requests: %" PRIu64
              ", tail requests: %" PRIu64 "\n",
              a.sections, a.windows, a.requests, a.tail_requests);
  double tail_total = 0.0;
  for (const double us : a.tail_phase_us) tail_total += us;
  std::printf("%-12s %10s\n", "phase", "p99_share");
  for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p)
    std::printf("%-12s %10.6f\n",
                telemetry::phase_name(static_cast<telemetry::Phase>(p)),
                tail_total > 0.0 ? a.tail_phase_us[p] / tail_total : 0.0);
  std::printf("slowest %zu:\n", a.exemplars.size());
  std::printf("%4s %10s %-12s %14s %-12s\n", "rank", "req", "op",
              "response_us", "dominant");
  for (std::size_t i = 0; i < a.exemplars.size(); ++i) {
    const BlameExemplar& ex = a.exemplars[i];
    // Dominant phase: largest share of the exemplar's breakdown; ties
    // resolve to the first phase in enum order.
    std::size_t dom = 0;
    for (std::size_t p = 1; p < telemetry::kPhaseCount; ++p)
      if (ex.phase_us[p] > ex.phase_us[dom]) dom = p;
    std::printf("%4zu %10" PRIu64 " %-12s %14s %-12s\n", i + 1, ex.req,
                ex.op.c_str(), ex.response_raw.c_str(),
                telemetry::phase_name(static_cast<telemetry::Phase>(dom)));
  }
  if (a.reconcile_failures)
    std::printf("RECONCILE FAILURES: %" PRIu64 "\n", a.reconcile_failures);
}

// ---- Chrome trace export --------------------------------------------

bool write_chrome(const Analysis& a, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "espreport: cannot open %s\n", path.c_str());
    return false;
  }
  os << "[\n";
  {
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", std::uint64_t{0});
    w.kv("tid", std::uint64_t{0});
    w.key("args");
    w.begin_object();
    w.kv("name", "espreport: " + a.hdr.ftl + " mechanism episodes");
    w.end_object();
    w.end_object();
  }
  for (const Episode& e : a.episodes) {
    os << ",\n";
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.kv("name", e.cause);
    w.kv("cat", "cause");
    w.kv("ph", "X");
    w.kv("ts", e.start_us);
    w.kv("dur", e.dur_us);
    w.kv("pid", std::uint64_t{0});
    // One lane per nesting depth keeps parent/child episodes (e.g. a GC
    // inside a flush) visually stacked.
    w.kv("tid", static_cast<std::uint64_t>(e.depth));
    w.key("args");
    w.begin_object();
    w.kv("detail", e.detail);
    w.end_object();
    w.end_object();
  }
  os << "\n]\n";
  return os.good();
}

}  // namespace

int main(int argc, char** argv) {
  bool waf_only = false;
  bool blame = false;
  std::string chrome_out;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--waf-table") {
      waf_only = true;
    } else if (arg == "--blame-table") {
      blame = true;
    } else if (arg == "--chrome-out" && i + 1 < argc) {
      chrome_out = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    usage(argv[0]);
    return 2;
  }

  if (blame) {
    bool first_blame = true;
    int exit_code = 0;
    for (const auto& path : paths) {
      BlameAnalysis a;
      if (!analyze_blame(path, &a)) return 1;
      if (!a.hdr.present) {
        std::fprintf(stderr, "espreport: %s has no forensics header\n",
                     path.c_str());
        return 1;
      }
      if (!first_blame) std::printf("\n");
      first_blame = false;
      print_blame_table(a, path);
      if (a.reconcile_failures) exit_code = 1;
    }
    return exit_code;
  }

  bool first = true;
  Analysis last;
  for (const auto& path : paths) {
    Analysis a;
    if (!analyze(path, &a)) return 1;
    if (!a.hdr.present) {
      std::fprintf(stderr, "espreport: %s has no journal header\n",
                   path.c_str());
      return 1;
    }
    if (!first) std::printf("\n");
    first = false;
    if (waf_only)
      print_waf_table(a, path);
    else
      print_full(a, path);
    last = std::move(a);
  }

  if (!chrome_out.empty()) {
    if (!write_chrome(last, chrome_out)) return 1;
    if (!waf_only)
      std::printf("\nchrome trace: wrote %s (%zu episodes)\n",
                  chrome_out.c_str(), last.episodes.size());
  }
  return 0;
}
