// Reproduces paper Fig. 5: impact of previous program operations on the
// retention capability of subpages.
//
// For each Npp^k type (k = number of program operations the word line saw
// before this subpage was programmed), the Monte-Carlo cell model measures
// retention BER right after 1K P/E cycles and after 1 and 2 months,
// normalized to the endurance BER (Npp^0 at t = 0) -- exactly the figure's
// axes. The behavioral RetentionModel the FTL simulator uses is printed
// alongside to show its calibration against the cell model.
//
// Published anchor points this regenerates:
//   * Npp^3 is ~41% worse than Npp^0 right after cycling;
//   * every type satisfies 1 month; Npp^3 fails at 2 months
//     ("uncorrectable errors" above the max ECC limit).
//
// Paper-scale population: defaults to 1,000 word lines per Npp type,
// fanned out over core/run_tasks. Seeds derive from stable task keys
// ("fig5/npp<k>/wl<i>"), tasks write into preallocated slots, and the
// reduction runs in input order on the joining thread, so results (and the
// --json payload) are bit-identical for any --jobs value.
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
#include "nand/retention_model.h"
#include "telemetry/json.h"
#include "util/stats.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace esp;

  constexpr std::uint32_t kSubpages = 4;
  constexpr std::uint32_t kCellsPerSubpage = 12000;
  constexpr std::uint64_t kBaseSeed = 7000;
  const std::vector<double> kMonths = {0.0, 1.0, 2.0};

  std::size_t wordlines = 1000;  // per Npp type
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
  const nand::RetentionModel behavioral;

  // Measure: for Npp^k, program slots 0..k and read slot k (the only one
  // with intact data) after each retention time. One task per (type, WL);
  // slot layout [((k * wordlines) + wl) * months + ti].
  const std::size_t n_months = kMonths.size();
  std::vector<double> ber(kSubpages * wordlines * n_months);
  const auto t0 = std::chrono::steady_clock::now();
  const unsigned jobs_used = core::run_tasks(
      jobs, kSubpages * wordlines, [&](std::size_t task) {
        const auto k = static_cast<std::uint32_t>(task / wordlines);
        const std::size_t wl_idx = task % wordlines;
        const auto seed = core::stable_cell_seed(
            "fig5/npp" + std::to_string(k) + "/wl" + std::to_string(wl_idx),
            kBaseSeed);
        nand::WordLine wl(kSubpages, kCellsPerSubpage, nand::CellModelParams{},
                          util::Xoshiro256(seed));
        for (std::uint32_t s = 0; s <= k; ++s) wl.program_subpage_random(s);
        for (std::size_t ti = 0; ti < n_months; ++ti)
          ber[task * n_months + ti] = wl.raw_ber(k, kMonths[ti]);
      });
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  double measured[kSubpages][3] = {};
  for (std::uint32_t k = 0; k < kSubpages; ++k) {
    for (std::size_t ti = 0; ti < n_months; ++ti) {
      util::RunningStats stats;
      for (std::size_t i = 0; i < wordlines; ++i)
        stats.add(ber[((k * wordlines) + i) * n_months + ti]);
      measured[k][ti] = stats.mean();
    }
  }

  const double endurance_ber = measured[0][0];  // Npp^0 right after 1K P/E
  const double ecc_limit_norm = ecc.spec().max_raw_ber() / endurance_ber;

  std::printf(
      "Fig. 5 -- Impact of previous program operations on subpage retention\n"
      "(cell model: %zu WLs/type, %u cells/subpage, 1K P/E, %u jobs; values "
      "normalized to the endurance BER)\n\n",
      wordlines, kCellsPerSubpage, jobs_used);

  util::TablePrinter t({"type", "right after 1K P/E", "after 1 month",
                        "after 2 months", "model @0", "model @1mo",
                        "model @2mo"});
  for (std::uint32_t k = 0; k < kSubpages; ++k) {
    std::vector<std::string> row = {"Npp^" + std::to_string(k)};
    for (int ti = 0; ti < 3; ++ti) {
      const double norm = measured[k][ti] / endurance_ber;
      row.push_back(util::TablePrinter::num(norm, 2) +
                    (norm > ecc_limit_norm ? " !" : ""));
    }
    for (const double months : kMonths)
      row.push_back(util::TablePrinter::num(
          behavioral.subpage_ber(k, months, 1000), 2));
    t.add_row(row);
  }
  t.print(std::cout);
  std::printf(
      "\nMaximum ECC limit (normalized): %.2f cell-model / %.2f behavioral; "
      "'!' marks uncorrectable.\n",
      ecc_limit_norm, behavioral.params().ecc_limit);

  const double ratio = measured[3][0] / measured[0][0];
  std::printf("Npp^3 vs Npp^0 right after 1K P/E: +%.0f%% (paper: +41%%)\n",
              (ratio - 1.0) * 100.0);

  const bool ok =
      ratio > 1.1 && ratio < 2.0 &&
      measured[3][1] / endurance_ber <= ecc_limit_norm &&  // 1 month OK
      measured[3][2] / endurance_ber > ecc_limit_norm;     // 2 months fails
  std::printf("shape check: %s\n", ok ? "PASS" : "FAIL");

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::fprintf(stderr, "failed to open %s\n", json_out.c_str());
      return 1;
    }
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.kv("figure", "fig5_retention_model");
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
    w.kv("wordlines_per_type", static_cast<std::uint64_t>(wordlines));
    w.kv("subpages", static_cast<std::uint64_t>(kSubpages));
    w.kv("cells_per_subpage", static_cast<std::uint64_t>(kCellsPerSubpage));
    w.kv("base_seed", kBaseSeed);
    w.key("months");
    w.begin_array();
    for (const double m : kMonths) w.value(m);
    w.end_array();
    w.end_object();
    w.newline();
    w.key("results");
    w.begin_object();
    w.kv("endurance_ber", endurance_ber);
    w.kv("ecc_limit_normalized", ecc_limit_norm);
    w.kv("npp3_vs_npp0_ratio", ratio);
    w.kv("shape_check_pass", ok);
    w.newline();
    w.key("normalized_mean_ber");
    w.begin_object();
    for (std::uint32_t k = 0; k < kSubpages; ++k) {
      w.key("npp" + std::to_string(k));
      w.begin_array();
      for (int ti = 0; ti < 3; ++ti)
        w.value(measured[k][ti] / endurance_ber);
      w.end_array();
    }
    w.end_object();
    w.newline();
    w.key("per_wl_raw_ber");
    w.begin_object();
    for (std::uint32_t k = 0; k < kSubpages; ++k) {
      for (std::size_t ti = 0; ti < n_months; ++ti) {
        w.key("npp" + std::to_string(k) + "_month" + std::to_string(ti));
        w.begin_array();
        for (std::size_t i = 0; i < wordlines; ++i)
          w.value(ber[((k * wordlines) + i) * n_months + ti]);
        w.end_array();
        w.newline();
      }
    }
    w.end_object();
    w.end_object();
    w.end_object();
    os << "\n";
    std::printf("wrote %s\n", json_out.c_str());
  }
  return ok ? 0 : 1;
}
