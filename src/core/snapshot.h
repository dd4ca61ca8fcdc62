// Whole-simulator snapshot/restore: the versioned on-disk format that
// composes every layer's save_state/load_state (util/serialize.h) into one
// deterministic checkpoint, and the device-lifetime fast-forward built on
// top of it (docs/LIFETIME.md).
//
// A snapshot captures the complete simulation state -- NAND block/page/
// wear/retention state, FTL mapping + pool + buffer + RNG state, driver
// clocks and shadow maps, and (optionally) the telemetry facade plus every
// attached streaming sink -- such that a run restored from the snapshot
// continues BIT-IDENTICALLY to the uninterrupted run: same request
// sequence, same flash ops, same journal/health/forensics bytes.
//
// File layout (little-endian, see docs/LIFETIME.md for the contract):
//
//   magic "ESPSNAP1" | u32 format version | u64 config fingerprint
//   META  seed, request cursors, sidecar byte offsets, section flags
//   SSD0  device -> ftl -> driver (always present)
//   then, per optional section flagged in META, in this order:
//   u64 length | TELM / JRNL / AUDT / HLTH / FRNS section body
//
// Optional sections carry a byte-length prefix so a reader without the
// matching consumer (e.g. restoring without an auditor) can skip them.
//
// Sidecar resume: streaming sinks (journal/health/forensics) write JSONL
// to plain files the snapshot cannot contain. META instead records each
// sidecar's byte offset at checkpoint time; restore truncates the sidecar
// to that offset and reopens it in append mode with the sink in resume
// mode (header suppressed), so the final file is byte-identical to an
// uninterrupted run's.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/ssd.h"

namespace esp::telemetry {
class Auditor;
class ForensicsCollector;
class HealthMonitor;
class Journal;
}  // namespace esp::telemetry

namespace esp::core {

/// First 8 bytes of every snapshot file.
inline constexpr char kSnapshotMagic[8] = {'E', 'S', 'P', 'S',
                                           'N', 'A', 'P', '1'};

/// Bumped on any incompatible change to the archive layout (including any
/// layer's save_state). Loads of a different version fail loudly.
inline constexpr std::uint32_t kSnapshotFormatVersion = 6;

/// FNV-1a over a canonical field-by-field serialization of the SsdConfig.
/// Two configs with equal fingerprints build byte-identical simulators, so
/// a snapshot only restores into the exact configuration that produced it.
std::uint64_t config_fingerprint(const SsdConfig& config);

/// Everything the META section carries besides the config fingerprint.
struct SnapshotMeta {
  /// Offset value meaning "this sidecar was not attached at save time".
  static constexpr std::uint64_t kNoSidecar = ~0ull;

  std::uint64_t workload_seed = 0;    ///< seed of the saved run's stream
  /// Requests consumed from the request source before the checkpoint
  /// (warmup + measured). Restore replays and discards exactly this many
  /// generator calls when resuming the same stream.
  std::uint64_t source_consumed = 0;
  /// Measured (post-warmup) requests completed before the checkpoint.
  std::uint64_t measured_done = 0;
  double saved_at_us = 0.0;  ///< simulated clock at checkpoint

  std::uint64_t journal_offset = kNoSidecar;    ///< sidecar bytes written
  std::uint64_t health_offset = kNoSidecar;
  std::uint64_t forensics_offset = kNoSidecar;

  // Section presence flags (filled by write_snapshot from the sinks it is
  // handed; read back by read_snapshot_meta).
  bool has_telemetry = false;
  bool has_journal = false;
  bool has_auditor = false;
  bool has_health = false;
  bool has_forensics = false;
};

/// The optional snapshot participants beyond the Ssd itself. Null members
/// are simply not saved (their sections are omitted) / not restored (their
/// sections are skipped via the length prefix).
struct SnapshotSinks {
  telemetry::Telemetry* telemetry = nullptr;
  telemetry::Journal* journal = nullptr;
  telemetry::Auditor* auditor = nullptr;
  telemetry::HealthMonitor* health = nullptr;
  telemetry::ForensicsCollector* forensics = nullptr;
};

/// Writes a complete snapshot of `ssd` (+ the non-null sinks) to `os`.
/// `meta`'s has_* flags are overwritten from `sinks`; fill the cursors and
/// sidecar offsets before calling. Must be called between host requests
/// with no open cause scope (the telemetry facade enforces this).
void write_snapshot(std::ostream& os, const SnapshotMeta& meta,
                    const Ssd& ssd, const SnapshotSinks& sinks);

/// Validates magic/version/fingerprint against `config` and returns the
/// META section, leaving `is` positioned at the SSD0 section for
/// read_snapshot_state. Callers truncate sidecars to the returned offsets
/// BEFORE constructing resume-mode sinks. Throws std::runtime_error on a
/// foreign file, version drift or a config fingerprint mismatch.
SnapshotMeta read_snapshot_meta(std::istream& is, const SsdConfig& config);

/// Restores `ssd` and the non-null sinks from the stream positioned by
/// read_snapshot_meta. Restore order contract: construct the sinks in
/// resume mode and set them on the facade, call this, and only then
/// attach the facade (Ssd::attach_telemetry(tel, /*resume=*/true)): a
/// resume attach re-bases a health monitor that has no epoch yet from the
/// counters, so they must already be restored. Sections present in the
/// file but without a consumer here are skipped; a consumer whose section
/// is absent is left freshly constructed.
void read_snapshot_state(std::istream& is, const SnapshotMeta& meta, Ssd& ssd,
                         const SnapshotSinks& sinks);

/// Convenience wrappers over whole files. save_snapshot_file overwrites;
/// both throw std::runtime_error on I/O failure.
void save_snapshot_file(const std::string& path, const SnapshotMeta& meta,
                        const Ssd& ssd, const SnapshotSinks& sinks);

}  // namespace esp::core
