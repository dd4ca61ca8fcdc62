// Flat field scanner and hdr-line reader shared by the stream analyzers
// (espreport, esphealth). Every stream line is a single flat JSON object
// written by the simulator with known key order and no escaped strings, so
// `"key":` substring extraction is exact; this is not a general JSON
// parser.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

namespace esp::jsonl {

/// The raw text of `key`'s value (up to the next ',' or '}').
inline bool find_raw(const std::string& line, const char* key,
                     std::string* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t start = pos + needle.size();
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  *out = line.substr(start, end - start);
  return true;
}

inline bool find_str(const std::string& line, const char* key,
                     std::string* out) {
  std::string raw;
  if (!find_raw(line, key, &raw)) return false;
  if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') return false;
  *out = raw.substr(1, raw.size() - 2);
  return true;
}

inline bool find_u64(const std::string& line, const char* key,
                     std::uint64_t* out) {
  std::string raw;
  if (!find_raw(line, key, &raw)) return false;
  *out = std::strtoull(raw.c_str(), nullptr, 10);
  return true;
}

inline bool find_double(const std::string& line, const char* key,
                        double* out) {
  std::string raw;
  if (!find_raw(line, key, &raw)) return false;
  *out = std::strtod(raw.c_str(), nullptr);
  return true;
}

/// The run identity every stream's hdr line carries (the fields of
/// telemetry::StreamHeader); a field the line lacks keeps its default.
struct StreamHdr {
  bool present = false;
  std::string ftl;
  std::uint64_t chips = 0, blocks_per_chip = 0, pages_per_block = 0;
  std::uint64_t subs = 1, page_bytes = 0, seed = 0;

  std::uint64_t total_blocks() const { return chips * blocks_per_chip; }

  void read(const std::string& line) {
    present = true;
    find_str(line, "ftl", &ftl);
    find_u64(line, "chips", &chips);
    find_u64(line, "blocks_per_chip", &blocks_per_chip);
    find_u64(line, "pages_per_block", &pages_per_block);
    find_u64(line, "subs", &subs);
    find_u64(line, "page_bytes", &page_bytes);
    find_u64(line, "seed", &seed);
  }
};

}  // namespace esp::jsonl
