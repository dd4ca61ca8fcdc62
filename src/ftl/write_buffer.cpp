#include "ftl/write_buffer.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace esp::ftl {

WriteBuffer::WriteBuffer(std::size_t capacity_sectors,
                         std::uint32_t sectors_per_page)
    : capacity_(capacity_sectors), spp_(sectors_per_page) {
  if (spp_ == 0 || spp_ > kSlots)
    throw std::invalid_argument(
        "WriteBuffer: sectors_per_page must be in [1, kMaxSubpagesPerPage]");
  // A full buffer holds at most one record per sector, so the table stays
  // at most a quarter full; it grows (load factor 1/2) only when a single
  // request pushes the buffer far past its capacity.
  rehash(std::bit_ceil(std::max<std::size_t>(16, 4 * capacity_)));
}

std::uint32_t WriteBuffer::find(std::uint64_t lpn) const {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = home(lpn);; i = (i + 1) & mask) {
    const Bucket& b = table_[i];
    if (b.record == kNil) return kNil;
    if (b.lpn == lpn) return b.record;
  }
}

void WriteBuffer::rehash(std::size_t buckets) {
  const std::vector<Bucket> old =
      std::exchange(table_, std::vector<Bucket>(buckets));
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  const std::size_t mask = buckets - 1;
  for (const Bucket& b : old) {
    if (b.record == kNil) continue;
    std::size_t i = home(b.lpn);
    while (table_[i].record != kNil) i = (i + 1) & mask;
    table_[i] = b;
  }
}

std::uint32_t WriteBuffer::allocate(std::uint64_t lpn) {
  const std::size_t live_records = records_.size() - free_records_.size();
  if (2 * (live_records + 1) > table_.size()) rehash(2 * table_.size());
  std::uint32_t record;
  if (!free_records_.empty()) {
    record = free_records_.back();
    free_records_.pop_back();
  } else {
    record = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  }
  PageRecord& rec = records_[record];
  rec.lpn = lpn;
  rec.present = 0;
  rec.small = 0;
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home(lpn);
  while (table_[i].record != kNil) i = (i + 1) & mask;
  table_[i] = Bucket{lpn, record};
  return record;
}

void WriteBuffer::release(std::uint32_t record) {
  // Backward-shift deletion: no tombstones, so probe chains never rot.
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = home(records_[record].lpn);
  while (table_[hole].record != record) hole = (hole + 1) & mask;
  for (std::size_t j = (hole + 1) & mask; table_[j].record != kNil;
       j = (j + 1) & mask) {
    // The entry at j may fill the hole only if the hole lies on its probe
    // path, i.e. its home is no closer to j than the hole is.
    const std::size_t dist_home = (j - home(table_[j].lpn)) & mask;
    if (dist_home >= ((j - hole) & mask)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = Bucket{};
  free_records_.push_back(record);
}

void WriteBuffer::link_tail(std::uint32_t node) {
  PageRecord& rec = records_[node / kSlots];
  rec.prev[node % kSlots] = tail_;
  rec.next[node % kSlots] = kNil;
  if (tail_ == kNil)
    head_ = node;
  else
    records_[tail_ / kSlots].next[tail_ % kSlots] = node;
  tail_ = node;
}

void WriteBuffer::unlink(std::uint32_t node) {
  const PageRecord& rec = records_[node / kSlots];
  const std::uint32_t prev = rec.prev[node % kSlots];
  const std::uint32_t next = rec.next[node % kSlots];
  if (prev == kNil)
    head_ = next;
  else
    records_[prev / kSlots].next[prev % kSlots] = next;
  if (next == kNil)
    tail_ = prev;
  else
    records_[next / kSlots].prev[next % kSlots] = prev;
}

bool WriteBuffer::place(std::uint64_t sector, std::uint64_t token,
                        std::uint64_t seq, bool small) {
  const std::uint64_t lpn = sector / spp_;
  const auto slot = static_cast<std::uint32_t>(sector - lpn * spp_);
  std::uint32_t record = find(lpn);
  if (record == kNil) record = allocate(lpn);
  PageRecord& rec = records_[record];
  const std::uint32_t bit = 1u << slot;
  const std::uint32_t node = record * kSlots + slot;
  const bool hit = (rec.present & bit) != 0;
  // An overwrite becomes the most recently written sector: move it to the
  // tail, keeping the list in write-sequence order.
  if (hit) {
    unlink(node);
  } else {
    rec.present |= bit;
    ++size_;
  }
  rec.token[slot] = token;
  rec.seq[slot] = seq;
  rec.small = small ? rec.small | bit : rec.small & ~bit;
  link_tail(node);
  return hit;
}

bool WriteBuffer::insert(std::uint64_t sector, std::uint64_t token,
                         bool small) {
  return place(sector, token, next_seq_++, small);
}

bool WriteBuffer::lookup(std::uint64_t sector, std::uint64_t* token) const {
  const std::uint64_t lpn = sector / spp_;
  const auto slot = static_cast<std::uint32_t>(sector - lpn * spp_);
  const std::uint32_t record = find(lpn);
  if (record == kNil || (records_[record].present >> slot & 1u) == 0)
    return false;
  if (token) *token = records_[record].token[slot];
  return true;
}

void WriteBuffer::remove(std::uint32_t record, std::uint32_t slot) {
  unlink(record * kSlots + slot);
  PageRecord& rec = records_[record];
  rec.present &= ~(1u << slot);
  --size_;
  if (rec.present == 0) release(record);
}

void WriteBuffer::take(std::uint32_t record, std::uint32_t slot,
                       std::vector<BufferedSector>& out) {
  const PageRecord& rec = records_[record];
  out.push_back(BufferedSector{rec.lpn * spp_ + slot, rec.token[slot],
                               (rec.small >> slot & 1u) != 0});
  remove(record, slot);
}

bool WriteBuffer::erase(std::uint64_t sector) {
  const std::uint64_t lpn = sector / spp_;
  const auto slot = static_cast<std::uint32_t>(sector - lpn * spp_);
  const std::uint32_t record = find(lpn);
  if (record == kNil || (records_[record].present >> slot & 1u) == 0)
    return false;
  remove(record, slot);
  return true;
}

void WriteBuffer::extract_run(std::uint64_t sector,
                              std::vector<BufferedSector>& out) {
  out.clear();
  std::uint64_t lpn = sector / spp_;
  auto slot = static_cast<std::uint32_t>(sector - lpn * spp_);
  std::uint32_t record = find(lpn);
  if (record == kNil || (records_[record].present >> slot & 1u) == 0) return;
  // Walk down to the start of the contiguous run, across page boundaries.
  for (;;) {
    const std::uint32_t present = records_[record].present;
    while (slot > 0 && (present >> (slot - 1) & 1u)) --slot;
    if (slot > 0 || lpn == 0) break;
    const std::uint32_t prev = find(lpn - 1);
    if (prev == kNil || (records_[prev].present >> (spp_ - 1) & 1u) == 0)
      break;
    record = prev;
    --lpn;
    slot = spp_ - 1;
  }
  // Then sweep upward until the run breaks. Taking a page's last sector
  // releases its record (present becomes 0), which ends the inner loop.
  for (;;) {
    while (slot < spp_ && (records_[record].present >> slot & 1u))
      take(record, slot++, out);
    if (slot < spp_) return;
    record = find(++lpn);
    if (record == kNil) return;
    slot = 0;
  }
}

void WriteBuffer::extract_oldest_run(std::vector<BufferedSector>& out) {
  if (head_ == kNil) {
    out.clear();
    return;
  }
  extract_run(sector_of(head_), out);
}

void WriteBuffer::extract_page_group(std::uint64_t sector,
                                     std::vector<BufferedSector>& out) {
  out.clear();
  const std::uint64_t lpn = sector / spp_;
  const auto slot = static_cast<std::uint32_t>(sector - lpn * spp_);
  const std::uint32_t record = find(lpn);
  if (record == kNil || (records_[record].present >> slot & 1u) == 0) return;
  // A record exists exactly while its page holds a buffered sector, so the
  // chain is the run of consecutive pages that have records. Sweeping up
  // from its bottom page stops at the first page past the chain's top.
  std::uint64_t lo = lpn;
  while (lo > 0 && find(lo - 1) != kNil) --lo;
  for (std::uint32_t cur = find(lo); cur != kNil; cur = find(++lo))
    for (std::uint32_t present = records_[cur].present; present != 0;
         present &= present - 1)
      take(cur, static_cast<std::uint32_t>(std::countr_zero(present)), out);
}

void WriteBuffer::extract_oldest_page_group(std::vector<BufferedSector>& out) {
  if (head_ == kNil) {
    out.clear();
    return;
  }
  extract_page_group(sector_of(head_), out);
}

namespace {
struct ArchivedEntry {
  std::uint64_t sector;
  std::uint64_t token;
  std::uint64_t seq;
  std::uint64_t small;  ///< 0 or 1; a full word keeps the struct padding-free
};
static_assert(std::has_unique_object_representations_v<ArchivedEntry>);
}  // namespace

void WriteBuffer::save_state(util::StateWriter& w) const {
  w.tag("WBUF");
  w.u64(capacity_);
  w.u64(next_seq_);
  std::vector<ArchivedEntry> entries;
  entries.reserve(size_);
  for (const PageRecord& rec : records_)  // released records have present 0
    for (std::uint32_t present = rec.present; present != 0;
         present &= present - 1) {
      const auto s = static_cast<std::uint32_t>(std::countr_zero(present));
      entries.push_back({rec.lpn * spp_ + s, rec.token[s], rec.seq[s],
                         rec.small >> s & 1u});
    }
  std::sort(entries.begin(), entries.end(),
            [](const ArchivedEntry& a, const ArchivedEntry& b) {
              return a.sector < b.sector;
            });
  w.pod_vec(entries);
}

void WriteBuffer::load_state(util::StateReader& r) {
  r.tag("WBUF");
  if (r.u64() != capacity_)
    throw std::runtime_error("WriteBuffer::load_state: capacity mismatch");
  const std::uint64_t next_seq = r.u64();
  std::vector<ArchivedEntry> entries;
  r.pod_vec(entries);
  // Validate everything before touching the live state.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0 && entries[i].sector <= entries[i - 1].sector)
      throw std::runtime_error(
          "WriteBuffer::load_state: duplicate or unsorted sector");
    if (entries[i].seq >= next_seq)
      throw std::runtime_error(
          "WriteBuffer::load_state: seq not below the saved next_seq");
  }
  std::sort(entries.begin(), entries.end(),
            [](const ArchivedEntry& a, const ArchivedEntry& b) {
              return a.seq < b.seq;
            });
  for (std::size_t i = 1; i < entries.size(); ++i)
    if (entries[i].seq == entries[i - 1].seq)
      throw std::runtime_error("WriteBuffer::load_state: duplicate seq");
  records_.clear();
  free_records_.clear();
  std::fill(table_.begin(), table_.end(), Bucket{});
  size_ = 0;
  head_ = tail_ = kNil;
  next_seq_ = next_seq;
  // Re-inserting in seq order rebuilds the LRU list exactly.
  for (const ArchivedEntry& e : entries)
    place(e.sector, e.token, e.seq, e.small != 0);
}

}  // namespace esp::ftl
