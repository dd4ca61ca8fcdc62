// Reproduces paper Fig. 4: the effect of subpage programming on NAND
// reliability, using the Monte-Carlo cell model.
//
// Two subpages sp1, sp2 on one word line:
//   (a) after programming sp1 alone, both behave normally;
//   (b) after the subsequent sp2 program WITHOUT an intervening erase,
//       sp1's data is corrupted beyond the ECC limit ("uncorrectable
//       failure") while sp2 stores data within the limit ("constrained
//       normal program") -- the asymmetry that makes ESP viable.
//
// Paper-scale population (the paper characterizes 81,920 pages over 20
// chips): defaults to 1,000 word lines, fanned out over core/run_tasks.
// Each word line's seed derives from its stable key ("fig4/wl/<i>"), tasks
// write into preallocated slots, and aggregation happens on the joining
// thread in input order -- so every number (and the --json payload) is
// bit-identical for any --jobs value.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/parallel_runner.h"
#include "ecc/ecc_model.h"
#include "nand/cell_model.h"
#include "telemetry/json.h"
#include "util/stats.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace esp;

  constexpr std::uint32_t kCellsPerSubpage = 4096 * 8 / 3 + 1;  // ~4KB data
  constexpr std::uint64_t kBaseSeed = 1000;

  std::size_t wordlines = 1000;  // Monte-Carlo population
  unsigned jobs = 0;             // 0 = hardware concurrency
  std::string json_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        json_out = core::flag_value(argc, argv, i);
      } else if (arg == "--jobs") {
        jobs = core::number_flag<unsigned>(argc, argv, i);
      } else if (arg == "--wordlines") {
        wordlines = core::number_flag<std::size_t>(argc, argv, i);
      } else {
        std::fprintf(stderr,
                     "usage: %s [--wordlines N] [--jobs N] [--json PATH]\n",
                     argv[0]);
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (wordlines == 0) {
    std::fprintf(stderr, "--wordlines must be > 0\n");
    return 2;
  }

  const ecc::EccModel ecc;
  const double ecc_limit_ber = ecc.spec().max_raw_ber();

  // Per-WL result slots, written by the fan-out, reduced in input order.
  std::vector<double> sp1_alone_ber(wordlines);
  std::vector<double> sp1_after_ber(wordlines);
  std::vector<double> sp2_after_ber(wordlines);

  const auto t0 = std::chrono::steady_clock::now();
  const unsigned jobs_used =
      core::run_tasks(jobs, wordlines, [&](std::size_t i) {
        const auto seed = core::stable_cell_seed(
            "fig4/wl/" + std::to_string(i), kBaseSeed);
        nand::WordLine wl(2, kCellsPerSubpage, nand::CellModelParams{},
                          util::Xoshiro256(seed));
        wl.program_subpage_random(0);            // sp1 @ t1
        sp1_alone_ber[i] = wl.raw_ber(0, 0.0);   // Fig. 4(a): normal program
        wl.program_subpage_random(1);            // sp2 @ t1 + dt, no erase
        sp1_after_ber[i] = wl.raw_ber(0, 0.0);   // Fig. 4(b): destroyed
        sp2_after_ber[i] = wl.raw_ber(1, 0.0);   // Fig. 4(b): constrained
      });
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  util::RunningStats sp1_alone, sp1_after, sp2_after;
  for (std::size_t i = 0; i < wordlines; ++i) {
    sp1_alone.add(sp1_alone_ber[i]);
    sp1_after.add(sp1_after_ber[i]);
    sp2_after.add(sp2_after_ber[i]);
  }

  std::printf(
      "Fig. 4 -- Effect of subpage programming on NAND reliability\n"
      "(%zu word lines x %u cells/subpage, TLC cell model, %u jobs; "
      "ECC limit = %.2e raw BER)\n\n",
      wordlines, kCellsPerSubpage, jobs_used, ecc_limit_ber);

  util::TablePrinter t({"state", "raw BER (mean)", "vs ECC limit", "verdict"});
  auto verdict = [&](double ber) {
    return ber <= ecc_limit_ber ? std::string("correctable")
                                : std::string("UNCORRECTABLE");
  };
  auto row = [&](const char* label, const util::RunningStats& s) {
    t.add_row({label, util::TablePrinter::num(s.mean(), 6),
               util::TablePrinter::num(s.mean() / ecc_limit_ber, 2) + "x",
               verdict(s.mean())});
  };
  row("(a) sp1 after its own program (normal)", sp1_alone);
  row("(b) sp1 after sp2's program (destroyed)", sp1_after);
  row("(b) sp2 after its program (constrained)", sp2_after);
  t.print(std::cout);

  std::printf(
      "\nExpected shape (paper): sp1's BER explodes past the ECC limit once "
      "sp2 is\nprogrammed (coupling + program disturbance), while sp2 -- "
      "inhibited during\nsp1's program -- stores data within the limit, at "
      "a reduced retention budget.\n");

  const bool ok = sp1_alone.mean() <= ecc_limit_ber &&
                  sp1_after.mean() > ecc_limit_ber &&
                  sp2_after.mean() <= ecc_limit_ber;
  std::printf("\nshape check: %s\n", ok ? "PASS" : "FAIL");

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::fprintf(stderr, "failed to open %s\n", json_out.c_str());
      return 1;
    }
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.kv("figure", "fig4_esp_reliability");
    w.newline();
    // Host-side provenance: wall time and job count vary run to run.
    // Determinism checks must diff "config" and "results" only.
    w.key("run");
    w.begin_object();
    w.kv("jobs", static_cast<std::uint64_t>(jobs_used));
    w.kv("wall_seconds", wall_seconds);
    w.end_object();
    w.newline();
    w.key("config");
    w.begin_object();
    w.kv("wordlines", static_cast<std::uint64_t>(wordlines));
    w.kv("cells_per_subpage", static_cast<std::uint64_t>(kCellsPerSubpage));
    w.kv("base_seed", kBaseSeed);
    w.kv("ecc_limit_raw_ber", ecc_limit_ber);
    w.end_object();
    w.newline();
    w.key("results");
    w.begin_object();
    w.kv("sp1_alone_mean_ber", sp1_alone.mean());
    w.kv("sp1_after_mean_ber", sp1_after.mean());
    w.kv("sp2_after_mean_ber", sp2_after.mean());
    w.kv("shape_check_pass", ok);
    w.newline();
    auto per_wl = [&](const char* key, const std::vector<double>& v) {
      w.key(key);
      w.begin_array();
      for (const double x : v) w.value(x);
      w.end_array();
      w.newline();
    };
    per_wl("sp1_alone_ber", sp1_alone_ber);
    per_wl("sp1_after_ber", sp1_after_ber);
    per_wl("sp2_after_ber", sp2_after_ber);
    w.end_object();
    w.end_object();
    os << "\n";
    std::printf("wrote %s\n", json_out.c_str());
  }
  return ok ? 0 : 1;
}
