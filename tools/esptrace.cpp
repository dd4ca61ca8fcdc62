// esptrace: trace utilities for the espnand simulator.
//
//   esptrace analyze <trace-file>                characterize a trace
//   esptrace generate <profile|manual-args> ...  synthesize a trace file
//
// `analyze` reports the paper's workload knobs (r_small, r_synch, skew)
// and a recommendation; `generate` materializes the synthetic profiles as
// portable trace files so runs can be reproduced outside this tool.
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/cli.h"
#include "workload/profiles.h"
#include "workload/trace.h"
#include "workload/trace_stats.h"

namespace {

using namespace esp;

int analyze(const char* path) {
  const auto requests = workload::read_trace_file(path);
  const auto stats = workload::analyze_trace(requests, 4);
  std::printf("%s\n", stats.report(4).c_str());
  std::printf("recommendation  : %s\n", stats.recommendation().c_str());
  return 0;
}

int generate(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: esptrace generate <sysbench|varmail|postmark|ycsb|"
                 "tpcc> <out-file> [requests] [footprint-sectors] [seed]\n");
    return 2;
  }
  const std::string name = argv[0];
  workload::Benchmark bench;
  if (name == "sysbench") bench = workload::Benchmark::kSysbench;
  else if (name == "varmail") bench = workload::Benchmark::kVarmail;
  else if (name == "postmark") bench = workload::Benchmark::kPostmark;
  else if (name == "ycsb") bench = workload::Benchmark::kYcsb;
  else if (name == "tpcc") bench = workload::Benchmark::kTpcc;
  else {
    std::fprintf(stderr, "unknown profile '%s'\n", name.c_str());
    return 2;
  }
  const char* out = argv[1];
  std::uint64_t count = 100000, footprint = 1 << 18, seed = 42;
  try {
    using core::parse_number;
    if (argc > 2) count = parse_number<std::uint64_t>("requests", argv[2]);
    if (argc > 3)
      footprint = parse_number<std::uint64_t>("footprint-sectors", argv[3]);
    if (argc > 4) seed = parse_number<std::uint64_t>("seed", argv[4]);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  auto params = workload::benchmark_profile(bench, footprint, count, 4, seed);
  workload::SyntheticWorkload stream(params);
  std::vector<workload::Request> requests;
  requests.reserve(count);
  while (const auto req = stream.next()) requests.push_back(*req);
  workload::write_trace_file(out, requests);
  std::printf("wrote %zu requests to %s\n", requests.size(), out);

  const auto stats = workload::analyze_trace(requests, 4);
  std::printf("\n%s", stats.report(4).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "analyze") == 0)
    return analyze(argv[2]);
  if (argc >= 2 && std::strcmp(argv[1], "generate") == 0)
    return generate(argc - 2, argv + 2);
  std::fprintf(stderr,
               "usage:\n  %s analyze <trace-file>\n"
               "  %s generate <profile> <out-file> [requests] [footprint] "
               "[seed]\n",
               argv[0], argv[0]);
  return 2;
}
