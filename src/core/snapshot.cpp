#include "core/snapshot.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "telemetry/auditor.h"
#include "telemetry/forensics.h"
#include "telemetry/health.h"
#include "telemetry/journal.h"
#include "telemetry/telemetry.h"
#include "util/serialize.h"

namespace esp::core {

namespace {

// FNV-1a 64-bit over a byte buffer.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void write_meta(util::StateWriter& w, const SnapshotMeta& m) {
  w.tag("META");
  w.u64(m.workload_seed);
  w.u64(m.source_consumed);
  w.u64(m.measured_done);
  w.f64(m.saved_at_us);
  w.u64(m.journal_offset);
  w.u64(m.health_offset);
  w.u64(m.forensics_offset);
  w.b(m.has_telemetry);
  w.b(m.has_journal);
  w.b(m.has_auditor);
  w.b(m.has_health);
  w.b(m.has_forensics);
}

SnapshotMeta read_meta(util::StateReader& r) {
  SnapshotMeta m;
  r.tag("META");
  m.workload_seed = r.u64();
  m.source_consumed = r.u64();
  m.measured_done = r.u64();
  m.saved_at_us = r.f64();
  m.journal_offset = r.u64();
  m.health_offset = r.u64();
  m.forensics_offset = r.u64();
  m.has_telemetry = r.b();
  m.has_journal = r.b();
  m.has_auditor = r.b();
  m.has_health = r.b();
  m.has_forensics = r.b();
  return m;
}

// Optional sections are buffered and written behind a byte-length prefix,
// so a reader without the matching consumer can skip the section whole.
// A null participant writes nothing.
template <typename Participant>
void write_section(std::ostream& os, util::StateWriter& w,
                   const Participant* participant) {
  if (participant == nullptr) return;
  std::ostringstream buf(std::ios::binary);
  util::StateWriter sw(buf);
  participant->save_state(sw);
  const std::string bytes = buf.str();
  w.u64(bytes.size());
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("write_snapshot: write failed");
}

// Reads one length-prefixed section when the file has it (`present`):
// loads it into `consumer` when there is one, skips the bytes otherwise.
// Verifies the consumer ate exactly the recorded length -- a drifted layer
// fails here instead of corrupting the next section.
template <typename Consumer>
void read_section(std::istream& is, util::StateReader& r, const char* name,
                  bool present, Consumer* consumer) {
  if (!present) return;
  const std::uint64_t len = r.u64();
  if (consumer == nullptr) {
    is.seekg(static_cast<std::streamoff>(len), std::ios::cur);
    if (!is)
      throw std::runtime_error(std::string("read_snapshot_state: cannot "
                                           "skip section ") +
                               name);
    return;
  }
  const std::streampos before = is.tellg();
  consumer->load_state(r);
  const std::streampos after = is.tellg();
  if (after - before != static_cast<std::streamoff>(len))
    throw std::runtime_error(
        std::string("read_snapshot_state: section ") + name + " consumed " +
        std::to_string(static_cast<long long>(after - before)) +
        " bytes, recorded " + std::to_string(len));
}

}  // namespace

std::uint64_t config_fingerprint(const SsdConfig& c) {
  std::ostringstream buf(std::ios::binary);
  util::StateWriter w(buf);
  // Canonical field-by-field serialization: never hash struct memory
  // (padding bytes), and keep the order append-only so the fingerprint is
  // stable across builds of the same source tree.
  w.u32(c.geometry.channels);
  w.u32(c.geometry.chips_per_channel);
  w.u32(c.geometry.blocks_per_chip);
  w.u32(c.geometry.pages_per_block);
  w.u32(c.geometry.page_bytes);
  w.u32(c.geometry.subpages_per_page);
  w.f64(c.timing.read_full_us);
  w.f64(c.timing.read_sub_us);
  w.f64(c.timing.prog_full_us);
  w.f64(c.timing.prog_sub_us);
  w.f64(c.timing.erase_us);
  w.f64(c.timing.xfer_us_per_kb);
  w.f64(c.timing.cmd_overhead_us);
  w.f64(c.retention.npp_base_slope);
  w.f64(c.retention.time_slope);
  w.f64(c.retention.npp_time_factor);
  w.f64(c.retention.ecc_limit);
  w.u32(c.retention.rated_pe_cycles);
  w.f64(c.retention.overwear_slope);
  w.f64(c.retention.wear_exponent);
  w.f64(c.retention.fullpage_rated_months);
  w.u8(static_cast<std::uint8_t>(c.ftl));
  w.f64(c.logical_fraction);
  w.f64(c.subpage_region_fraction);
  w.f64(c.retention_evict_age);
  w.f64(c.retention_scan_interval);
  w.u64(c.buffer_sectors);
  w.u64(c.gc_reserve_blocks);
  w.u32(c.queue_depth);
  w.u32(c.wl_pe_threshold);
  w.u32(c.wl_check_interval);
  w.b(c.use_copyback);
  w.b(c.reference_scan_maintenance);
  return fnv1a(buf.str());
}

void write_snapshot(std::ostream& os, const SnapshotMeta& meta,
                    const Ssd& ssd, const SnapshotSinks& sinks) {
  util::StateWriter w(os);
  w.raw(kSnapshotMagic, sizeof kSnapshotMagic);
  w.u32(kSnapshotFormatVersion);
  w.u64(config_fingerprint(ssd.config()));

  SnapshotMeta m = meta;
  m.has_telemetry = sinks.telemetry != nullptr;
  m.has_journal = sinks.journal != nullptr;
  m.has_auditor = sinks.auditor != nullptr;
  m.has_health = sinks.health != nullptr;
  m.has_forensics = sinks.forensics != nullptr;
  write_meta(w, m);

  ssd.save_state(w);

  write_section(os, w, sinks.telemetry);
  write_section(os, w, sinks.journal);
  write_section(os, w, sinks.auditor);
  write_section(os, w, sinks.health);
  write_section(os, w, sinks.forensics);
  os.flush();
  if (!os) throw std::runtime_error("write_snapshot: flush failed");
}

SnapshotMeta read_snapshot_meta(std::istream& is, const SsdConfig& config) {
  util::StateReader r(is);
  char magic[sizeof kSnapshotMagic];
  r.raw(magic, sizeof magic);
  if (std::memcmp(magic, kSnapshotMagic, sizeof magic) != 0)
    throw std::runtime_error("read_snapshot_meta: not an ESP snapshot file");
  const std::uint32_t version = r.u32();
  if (version != kSnapshotFormatVersion)
    throw std::runtime_error(
        "read_snapshot_meta: snapshot format version " +
        std::to_string(version) + ", this build reads version " +
        std::to_string(kSnapshotFormatVersion));
  const std::uint64_t fp = r.u64();
  const std::uint64_t want = config_fingerprint(config);
  if (fp != want)
    throw std::runtime_error(
        "read_snapshot_meta: config fingerprint mismatch (snapshot " +
        std::to_string(fp) + ", current config " + std::to_string(want) +
        ") -- a snapshot only restores into the exact SsdConfig that "
        "produced it");
  return read_meta(r);
}

void read_snapshot_state(std::istream& is, const SnapshotMeta& meta, Ssd& ssd,
                         const SnapshotSinks& sinks) {
  util::StateReader r(is);
  ssd.load_state(r);
  read_section(is, r, "TELM", meta.has_telemetry, sinks.telemetry);
  read_section(is, r, "JRNL", meta.has_journal, sinks.journal);
  read_section(is, r, "AUDT", meta.has_auditor, sinks.auditor);
  read_section(is, r, "HLTH", meta.has_health, sinks.health);
  read_section(is, r, "FRNS", meta.has_forensics, sinks.forensics);
}

void save_snapshot_file(const std::string& path, const SnapshotMeta& meta,
                        const Ssd& ssd, const SnapshotSinks& sinks) {
  std::ofstream os(path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!os)
    throw std::runtime_error("save_snapshot_file: cannot open " + path);
  write_snapshot(os, meta, ssd, sinks);
}

}  // namespace esp::core
