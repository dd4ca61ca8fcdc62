// Host write buffer (fgmFTL, subFTL and sectorLogFTL front end).
//
// Buffers dirty 4-KB sectors so that small *asynchronous* writes can be
// merged into full-page programs before reaching flash. Synchronous writes
// pass through: the FTL extracts them (plus any contiguous buffered
// neighbors -- a free merge) immediately, which is exactly why sync-heavy
// workloads defeat the FGM scheme (paper Sec. 2).
//
// The buffer only stores tokens; flush policy lives in the owning FTL.
//
// Layout: one flat record per buffered logical page (per-sector present
// and small bits, tokens and write sequence numbers), found through an
// open-addressed table keyed by logical page number. Every live sector
// sits on an intrusive LRU list in write-sequence order, so the least-
// recently-written sector is always the list head. Extraction fills a
// vector the caller owns and reuses; after warm-up no call allocates.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "nand/geometry.h"
#include "util/serialize.h"

namespace esp::ftl {

struct BufferedSector {
  std::uint64_t sector = 0;
  std::uint64_t token = 0;
  bool small = false;  ///< originated from a small host request
};

class WriteBuffer {
 public:
  /// `sectors_per_page` is the owning FTL's page width (the merge unit of
  /// the page-group extracts); at most nand::kMaxSubpagesPerPage.
  WriteBuffer(std::size_t capacity_sectors, std::uint32_t sectors_per_page);

  /// Inserts or overwrites a dirty sector. Returns true when the sector was
  /// already buffered (write hit).
  bool insert(std::uint64_t sector, std::uint64_t token, bool small);

  /// Read hit: fills `token` and returns true when the sector is buffered.
  bool lookup(std::uint64_t sector, std::uint64_t* token) const;

  /// Drops a sector (TRIM). Returns true when it was present.
  bool erase(std::uint64_t sector);

  // Every extract clears `out` (keeping its capacity) and fills it with the
  // removed sectors, sorted ascending; `out` stays empty when there is
  // nothing to extract.

  /// The maximal run of buffered sectors contiguous with (and including)
  /// `sector`. Empty when `sector` is not buffered.
  void extract_run(std::uint64_t sector, std::vector<BufferedSector>& out);

  /// The least-recently-written sector's contiguous run (capacity
  /// eviction).
  void extract_oldest_run(std::vector<BufferedSector>& out);

  /// Page-granular merge unit: every buffered sector belonging to the
  /// maximal chain of consecutive logical pages that each hold at least one
  /// buffered sector, containing `sector`'s page. This is the "merge small
  /// writes with consecutive logical block addresses" unit of the paper's
  /// buffered FTLs: sectors of the same page always flush into the same
  /// physical page. Empty when `sector` is not buffered.
  void extract_page_group(std::uint64_t sector,
                          std::vector<BufferedSector>& out);

  /// The least-recently-written sector's page group.
  void extract_oldest_page_group(std::vector<BufferedSector>& out);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool over_capacity() const { return size_ > capacity_; }
  bool empty() const { return size_ == 0; }

  /// Snapshot support. Only live (sector, token, seq, small) entries are
  /// archived, in sector order (canonical); loading rebuilds the LRU list
  /// by sorting on seq, so eviction order is exact. A malformed section
  /// (duplicate sector, duplicate seq, seq >= next_seq) throws.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  static constexpr std::uint32_t kSlots = nand::kMaxSubpagesPerPage;
  static constexpr std::uint32_t kNil = ~0u;

  /// One buffered logical page. A sector's LRU node id is
  /// `record index * kSlots + slot`; `prev`/`next` hold node ids.
  struct PageRecord {
    std::uint64_t lpn = 0;
    std::uint32_t present = 0;  ///< bit s: sector lpn * spp + s buffered
    std::uint32_t small = 0;    ///< bit s: that sector came from a small write
    std::array<std::uint64_t, kSlots> token{};
    std::array<std::uint64_t, kSlots> seq{};
    std::array<std::uint32_t, kSlots> prev{};
    std::array<std::uint32_t, kSlots> next{};
  };
  struct Bucket {
    std::uint64_t lpn = 0;
    std::uint32_t record = kNil;  ///< kNil = empty bucket
  };

  std::size_t home(std::uint64_t lpn) const {
    return static_cast<std::size_t>((lpn * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  std::uint32_t find(std::uint64_t lpn) const;
  std::uint32_t allocate(std::uint64_t lpn);
  void release(std::uint32_t record);
  void rehash(std::size_t buckets);

  /// Writes `sector` with an explicit sequence number and links it at the
  /// LRU tail; returns true on overwrite.
  bool place(std::uint64_t sector, std::uint64_t token, std::uint64_t seq,
             bool small);
  /// Unlinks one present sector, releasing its record when it empties.
  void remove(std::uint32_t record, std::uint32_t slot);
  /// Appends one present sector to `out`, then removes it.
  void take(std::uint32_t record, std::uint32_t slot,
            std::vector<BufferedSector>& out);
  void link_tail(std::uint32_t node);
  void unlink(std::uint32_t node);
  std::uint64_t sector_of(std::uint32_t node) const {
    return records_[node / kSlots].lpn * spp_ + node % kSlots;
  }

  std::size_t capacity_;
  std::uint32_t spp_;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;  ///< live sectors
  std::vector<PageRecord> records_;
  std::vector<std::uint32_t> free_records_;
  std::vector<Bucket> table_;  ///< power-of-two size, linear probing
  unsigned shift_ = 0;         ///< 64 - log2(table_.size())
  std::uint32_t head_ = kNil;  ///< least-recently-written sector's node
  std::uint32_t tail_ = kNil;
};

}  // namespace esp::ftl
