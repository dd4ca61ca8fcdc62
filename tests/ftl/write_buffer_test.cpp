#include "ftl/write_buffer.h"

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.h"
#include "util/serialize.h"

namespace esp::ftl {
namespace {

std::vector<BufferedSector> extract_run(WriteBuffer& buf, std::uint64_t s) {
  std::vector<BufferedSector> out;
  buf.extract_run(s, out);
  return out;
}

std::vector<BufferedSector> extract_oldest_run(WriteBuffer& buf) {
  std::vector<BufferedSector> out;
  buf.extract_oldest_run(out);
  return out;
}

std::vector<BufferedSector> extract_page_group(WriteBuffer& buf,
                                               std::uint64_t s) {
  std::vector<BufferedSector> out;
  buf.extract_page_group(s, out);
  return out;
}

std::vector<BufferedSector> extract_oldest_page_group(WriteBuffer& buf) {
  std::vector<BufferedSector> out;
  buf.extract_oldest_page_group(out);
  return out;
}

TEST(WriteBuffer, InsertAndLookup) {
  WriteBuffer buf(8, 4);
  EXPECT_FALSE(buf.insert(5, 100, true));
  std::uint64_t token = 0;
  EXPECT_TRUE(buf.lookup(5, &token));
  EXPECT_EQ(token, 100u);
  EXPECT_FALSE(buf.lookup(6, &token));
}

TEST(WriteBuffer, OverwriteReportsHit) {
  WriteBuffer buf(8, 4);
  buf.insert(5, 100, true);
  EXPECT_TRUE(buf.insert(5, 200, false));
  std::uint64_t token = 0;
  buf.lookup(5, &token);
  EXPECT_EQ(token, 200u);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(WriteBuffer, ExtractRunReturnsContiguousSorted) {
  WriteBuffer buf(16, 4);
  for (const std::uint64_t s : {3, 5, 4, 7, 10}) buf.insert(s, s * 10, true);
  const auto run = extract_run(buf, 4);
  ASSERT_EQ(run.size(), 3u);
  EXPECT_EQ(run[0].sector, 3u);
  EXPECT_EQ(run[1].sector, 4u);
  EXPECT_EQ(run[2].sector, 5u);
  EXPECT_EQ(run[1].token, 40u);
  // Extracted entries are gone; others remain.
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_TRUE(buf.lookup(7, nullptr));
}

TEST(WriteBuffer, ExtractRunMissingSectorEmpty) {
  WriteBuffer buf(8, 4);
  buf.insert(1, 1, true);
  EXPECT_TRUE(extract_run(buf, 5).empty());
  EXPECT_EQ(buf.size(), 1u);
}

TEST(WriteBuffer, ExtractRunAtSectorZero) {
  WriteBuffer buf(8, 4);
  buf.insert(0, 7, true);
  buf.insert(1, 8, true);
  const auto run = extract_run(buf, 0);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0].sector, 0u);
}

TEST(WriteBuffer, OldestRunIsLeastRecentlyWritten) {
  WriteBuffer buf(16, 4);
  buf.insert(100, 1, true);
  buf.insert(200, 2, true);
  buf.insert(100, 3, true);  // refresh 100: now 200 is oldest
  const auto run = extract_oldest_run(buf);
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0].sector, 200u);
}

TEST(WriteBuffer, OldestRunIncludesNeighbors) {
  WriteBuffer buf(16, 4);
  buf.insert(50, 1, true);
  buf.insert(51, 2, true);
  buf.insert(90, 3, true);
  const auto run = extract_oldest_run(buf);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0].sector, 50u);
  EXPECT_EQ(run[1].sector, 51u);
}

TEST(WriteBuffer, OverCapacityFlag) {
  WriteBuffer buf(2, 4);
  buf.insert(1, 1, true);
  buf.insert(2, 2, true);
  EXPECT_FALSE(buf.over_capacity());
  buf.insert(3, 3, true);
  EXPECT_TRUE(buf.over_capacity());
}

TEST(WriteBuffer, EraseDropsEntry) {
  WriteBuffer buf(8, 4);
  buf.insert(5, 1, true);
  EXPECT_TRUE(buf.erase(5));
  EXPECT_FALSE(buf.erase(5));
  EXPECT_FALSE(buf.lookup(5, nullptr));
}

TEST(WriteBuffer, SmallFlagPreserved) {
  WriteBuffer buf(8, 4);
  buf.insert(1, 10, true);
  buf.insert(2, 20, false);
  const auto run = extract_run(buf, 1);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_TRUE(run[0].small);
  EXPECT_FALSE(run[1].small);
}

TEST(WriteBuffer, StaleAgeLogEntriesSkipped) {
  WriteBuffer buf(8, 4);
  buf.insert(1, 1, true);
  buf.insert(2, 2, true);
  extract_run(buf, 1);  // removes 1 and 2
  buf.insert(3, 3, true);
  const auto run = extract_oldest_run(buf);  // 1 and 2 must not resurface
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0].sector, 3u);
}

TEST(WriteBuffer, PageGroupPullsWholePages) {
  WriteBuffer buf(16, 4);
  // lpn 0 has sectors {1, 3}; lpn 1 has {4}; lpn 3 has {12} (gap at lpn 2).
  for (const std::uint64_t s : {1, 3, 4, 12}) buf.insert(s, s, true);
  const auto group = extract_page_group(buf, 3);
  ASSERT_EQ(group.size(), 3u);  // lpns 0 and 1 chain; lpn 3 does not
  EXPECT_EQ(group[0].sector, 1u);
  EXPECT_EQ(group[1].sector, 3u);
  EXPECT_EQ(group[2].sector, 4u);
  EXPECT_TRUE(buf.lookup(12, nullptr));
}

TEST(WriteBuffer, PageGroupOfMissingSectorIsEmpty) {
  WriteBuffer buf(8, 4);
  buf.insert(0, 1, true);
  EXPECT_TRUE(extract_page_group(buf, 9).empty());
}

TEST(WriteBuffer, OldestPageGroupFollowsAge) {
  WriteBuffer buf(16, 4);
  buf.insert(40, 1, true);  // lpn 10, oldest
  buf.insert(80, 2, true);  // lpn 20
  buf.insert(41, 3, true);  // lpn 10 again (same page as oldest)
  const auto group = extract_oldest_page_group(buf);
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].sector, 40u);
  EXPECT_EQ(group[1].sector, 41u);
}

TEST(WriteBuffer, PageGroupSortedWithinAndAcrossPages) {
  WriteBuffer buf(16, 4);
  for (const std::uint64_t s : {7, 5, 6, 4, 3, 0}) buf.insert(s, s, true);
  const auto group = extract_page_group(buf, 5);
  ASSERT_EQ(group.size(), 6u);
  for (std::size_t i = 1; i < group.size(); ++i)
    EXPECT_LT(group[i - 1].sector, group[i].sector);
}

TEST(WriteBuffer, AgeLogBoundedUnderHotOverwrites) {
  // One hot sector rewritten a million times never leaves the buffer; each
  // overwrite moves it to the LRU tail, so an older cold sector still
  // drains first.
  WriteBuffer buf(64, 4);
  for (std::uint64_t i = 0; i < 1'000'000; ++i) buf.insert(42, i + 1, true);
  EXPECT_EQ(buf.size(), 1u);
  buf.insert(7, 1, true);
  for (std::uint64_t i = 0; i < 100; ++i) buf.insert(42, i, true);
  const auto oldest = extract_oldest_run(buf);
  ASSERT_EQ(oldest.size(), 1u);
  EXPECT_EQ(oldest[0].sector, 7u);
}

// --- Snapshot section -------------------------------------------------------

/// A hand-built WBUF section: `entries` are (sector, token, seq, small).
std::string wbuf_section(
    std::uint64_t capacity, std::uint64_t next_seq,
    std::initializer_list<std::array<std::uint64_t, 4>> entries) {
  std::stringstream ss;
  util::StateWriter w(ss);
  w.tag("WBUF");
  w.u64(capacity);
  w.u64(next_seq);
  w.u64(entries.size());
  for (const auto& e : entries)
    for (const std::uint64_t v : e) w.u64(v);
  return ss.str();
}

void load(WriteBuffer& buf, const std::string& bytes) {
  std::istringstream is(bytes);
  util::StateReader r(is);
  buf.load_state(r);
}

TEST(WriteBuffer, LoadStateRebuildsLruOrderFromSeq) {
  // Archived in sector order; the seqs say sector 9 is the oldest.
  WriteBuffer buf(8, 4);
  load(buf, wbuf_section(8, 20, {{1, 11, 12, 1}, {9, 99, 4, 0}}));
  EXPECT_EQ(buf.size(), 2u);
  const auto oldest = extract_oldest_run(buf);
  ASSERT_EQ(oldest.size(), 1u);
  EXPECT_EQ(oldest[0].sector, 9u);
  EXPECT_EQ(oldest[0].token, 99u);
  EXPECT_FALSE(oldest[0].small);
  // The next insert continues from the saved next_seq: newer than sector 1.
  buf.insert(30, 3, true);
  EXPECT_EQ(extract_oldest_run(buf)[0].sector, 1u);
}

TEST(WriteBuffer, LoadStateRejectsMalformedSection) {
  WriteBuffer buf(8, 4);
  buf.insert(2, 22, true);
  // Duplicate sector (the map-based loader silently kept one of them).
  EXPECT_THROW(load(buf, wbuf_section(8, 20, {{1, 11, 3, 1}, {1, 12, 4, 1}})),
               std::runtime_error);
  // Duplicate seq: two sectors cannot share one write.
  EXPECT_THROW(load(buf, wbuf_section(8, 20, {{1, 11, 3, 1}, {5, 55, 3, 1}})),
               std::runtime_error);
  // seq at or beyond the saved next_seq: it was never handed out.
  EXPECT_THROW(load(buf, wbuf_section(8, 20, {{1, 11, 20, 1}})),
               std::runtime_error);
  // Capacity mismatch.
  EXPECT_THROW(load(buf, wbuf_section(16, 20, {})), std::runtime_error);
  // A rejected section leaves the buffer untouched.
  EXPECT_EQ(buf.size(), 1u);
  std::uint64_t token = 0;
  EXPECT_TRUE(buf.lookup(2, &token));
  EXPECT_EQ(token, 22u);
}

// --- Differential test against the map + age-log buffer ---------------------

/// The previous WriteBuffer (an unordered_map of sectors plus a deque age
/// log with lazy pruning and periodic compaction), kept verbatim as a
/// brute-force reference. Its extract and LRU semantics define the flat
/// buffer's contract.
class ReferenceWriteBuffer {
 public:
  explicit ReferenceWriteBuffer(std::size_t capacity_sectors)
      : capacity_(capacity_sectors) {}

  bool insert(std::uint64_t sector, std::uint64_t token, bool small) {
    const std::uint64_t seq = next_seq_++;
    auto [it, fresh] = entries_.try_emplace(sector, Entry{token, seq, small});
    if (!fresh) {
      it->second.token = token;
      it->second.seq = seq;
      it->second.small = small;
    }
    age_log_.emplace_back(seq, sector);
    if (age_log_.size() > 2 * entries_.size() + 16) compact_age_log();
    return !fresh;
  }

  bool lookup(std::uint64_t sector, std::uint64_t* token) const {
    const auto it = entries_.find(sector);
    if (it == entries_.end()) return false;
    if (token) *token = it->second.token;
    return true;
  }

  bool erase(std::uint64_t sector) { return entries_.erase(sector) > 0; }

  std::vector<BufferedSector> extract_run(std::uint64_t sector) {
    std::vector<BufferedSector> run;
    if (!entries_.contains(sector)) return run;
    std::uint64_t lo = sector;
    while (lo > 0 && entries_.contains(lo - 1)) --lo;
    for (std::uint64_t s = lo;; ++s) {
      const auto it = entries_.find(s);
      if (it == entries_.end()) break;
      run.push_back(BufferedSector{s, it->second.token, it->second.small});
      entries_.erase(it);
    }
    return run;
  }

  std::vector<BufferedSector> extract_oldest_run() {
    while (!age_log_.empty()) {
      const auto [seq, sector] = age_log_.front();
      const auto it = entries_.find(sector);
      if (it == entries_.end() || it->second.seq != seq) {
        age_log_.pop_front();
        continue;
      }
      return extract_run(sector);
    }
    return {};
  }

  std::vector<BufferedSector> extract_page_group(
      std::uint64_t sector, std::uint32_t sectors_per_page) {
    std::vector<BufferedSector> group;
    if (!entries_.contains(sector)) return group;
    const auto page_has = [this, sectors_per_page](std::uint64_t lpn) {
      for (std::uint32_t s = 0; s < sectors_per_page; ++s)
        if (entries_.contains(lpn * sectors_per_page + s)) return true;
      return false;
    };
    std::uint64_t lo = sector / sectors_per_page;
    while (lo > 0 && page_has(lo - 1)) --lo;
    std::uint64_t hi = sector / sectors_per_page;
    while (page_has(hi + 1)) ++hi;
    for (std::uint64_t lpn = lo; lpn <= hi; ++lpn) {
      for (std::uint32_t s = 0; s < sectors_per_page; ++s) {
        const std::uint64_t cur = lpn * sectors_per_page + s;
        const auto it = entries_.find(cur);
        if (it == entries_.end()) continue;
        group.push_back(
            BufferedSector{cur, it->second.token, it->second.small});
        entries_.erase(it);
      }
    }
    return group;
  }

  std::vector<BufferedSector> extract_oldest_page_group(
      std::uint32_t sectors_per_page) {
    while (!age_log_.empty()) {
      const auto [seq, sector] = age_log_.front();
      const auto it = entries_.find(sector);
      if (it == entries_.end() || it->second.seq != seq) {
        age_log_.pop_front();
        continue;
      }
      return extract_page_group(sector, sectors_per_page);
    }
    return {};
  }

  std::size_t size() const { return entries_.size(); }
  bool over_capacity() const { return entries_.size() > capacity_; }

 private:
  void compact_age_log() {
    std::deque<std::pair<std::uint64_t, std::uint64_t>> live;
    for (const auto& [seq, sector] : age_log_) {
      const auto it = entries_.find(sector);
      if (it != entries_.end() && it->second.seq == seq)
        live.emplace_back(seq, sector);
    }
    age_log_.swap(live);
  }
  struct Entry {
    std::uint64_t token;
    std::uint64_t seq;
    bool small;
  };

  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> age_log_;
};

::testing::AssertionResult same_extract(
    const std::vector<BufferedSector>& want,
    const std::vector<BufferedSector>& got) {
  if (want.size() != got.size())
    return ::testing::AssertionFailure()
           << "extracted " << got.size() << " sectors, reference "
           << want.size();
  for (std::size_t i = 0; i < want.size(); ++i)
    if (want[i].sector != got[i].sector || want[i].token != got[i].token ||
        want[i].small != got[i].small)
      return ::testing::AssertionFailure()
             << "entry " << i << ": (" << got[i].sector << ", "
             << got[i].token << ", " << got[i].small << ") vs reference ("
             << want[i].sector << ", " << want[i].token << ", "
             << want[i].small << ")";
  return ::testing::AssertionSuccess();
}

/// One seeded op stream through both buffers, comparing every return value,
/// every extracted (sector, token, small) sequence and size() after every
/// op.
void run_differential(std::uint32_t spp, std::uint64_t seed) {
  constexpr std::size_t kCapacity = 48;
  constexpr int kOps = 60'000;
  constexpr int kRoundTripEvery = 3'000;
  constexpr int kHugeRequestEvery = 5'000;
  auto buf = std::make_unique<WriteBuffer>(kCapacity, spp);
  ReferenceWriteBuffer ref(kCapacity);
  util::Xoshiro256 rng(seed);
  std::vector<BufferedSector> got;
  std::uint64_t next_token = 1;

  // A hot region (overwrites, dense page chains, sector 0) plus a sparse
  // uniform range 40x the capacity.
  const auto pick_sector = [&]() -> std::uint64_t {
    return rng.chance(0.3) ? rng.below(16) : rng.below(40 * kCapacity);
  };
  // The FTLs' write path: insert every sector of the request, flush a sync
  // request's run or page group, then evict oldest until under capacity.
  // Returns false on the first divergence (already reported).
  const auto request = [&](std::uint64_t start, std::uint64_t count,
                           bool sync, bool page_mode) {
    const bool small = count < spp;
    for (std::uint64_t s = start; s < start + count; ++s) {
      const std::uint64_t token = next_token++;
      const bool hit = ref.insert(s, token, small);
      EXPECT_EQ(buf->insert(s, token, small), hit) << "insert " << s;
      if (buf->size() != ref.size()) return false;
    }
    if (sync) {
      if (page_mode) {
        buf->extract_page_group(start, got);
        EXPECT_TRUE(same_extract(ref.extract_page_group(start, spp), got))
            << "sync page group at " << start;
      } else {
        buf->extract_run(start, got);
        EXPECT_TRUE(same_extract(ref.extract_run(start), got))
            << "sync run at " << start;
      }
    }
    while (ref.over_capacity() || buf->over_capacity()) {
      if (buf->over_capacity() != ref.over_capacity()) return false;
      if (page_mode) {
        buf->extract_oldest_page_group(got);
        if (!same_extract(ref.extract_oldest_page_group(spp), got))
          return false;
      } else {
        buf->extract_oldest_run(got);
        if (!same_extract(ref.extract_oldest_run(), got)) return false;
      }
      if (got.empty()) break;
    }
    return !::testing::Test::HasFailure();
  };

  for (int op = 0; op < kOps; ++op) {
    SCOPED_TRACE("spp " + std::to_string(spp) + ", op " + std::to_string(op));
    if (op % kHugeRequestEvery == kHugeRequestEvery / 2) {
      // One request spanning 4x capacity pages: more live records than the
      // table's load bound allows, so the table must grow mid-request.
      ASSERT_TRUE(request(rng.below(64), 4 * kCapacity * spp,
                          rng.chance(0.5), rng.chance(0.5)));
    } else if (op % kRoundTripEvery == kRoundTripEvery - 1) {
      std::stringstream ss;
      util::StateWriter w(ss);
      buf->save_state(w);
      auto restored = std::make_unique<WriteBuffer>(kCapacity, spp);
      util::StateReader r(ss);
      restored->load_state(r);
      // The archive is canonical: a restored buffer saves the same bytes.
      std::stringstream again;
      util::StateWriter w2(again);
      restored->save_state(w2);
      ASSERT_EQ(ss.str(), again.str());
      buf = std::move(restored);
    }
    const std::uint64_t kind = rng.below(100);
    const std::uint64_t sector = pick_sector();
    if (kind < 40) {
      const std::uint64_t count = 1 + rng.below(2 * spp);  // may straddle
      ASSERT_TRUE(request(sector, count, rng.chance(0.5), rng.chance(0.5)));
    } else if (kind < 50) {
      ASSERT_EQ(buf->erase(sector), ref.erase(sector)) << "erase " << sector;
    } else if (kind < 65) {
      std::uint64_t want = 0, have = 0;
      const bool hit = ref.lookup(sector, &want);
      ASSERT_EQ(buf->lookup(sector, &have), hit) << "lookup " << sector;
      ASSERT_EQ(have, want) << "lookup token " << sector;
    } else if (kind < 75) {
      buf->extract_run(sector, got);
      ASSERT_TRUE(same_extract(ref.extract_run(sector), got))
          << "extract_run " << sector;
    } else if (kind < 85) {
      buf->extract_page_group(sector, got);
      ASSERT_TRUE(same_extract(ref.extract_page_group(sector, spp), got))
          << "extract_page_group " << sector;
    } else if (kind < 90) {
      buf->extract_oldest_run(got);
      ASSERT_TRUE(same_extract(ref.extract_oldest_run(), got))
          << "extract_oldest_run";
    } else if (kind < 95) {
      buf->extract_oldest_page_group(got);
      ASSERT_TRUE(same_extract(ref.extract_oldest_page_group(spp), got))
          << "extract_oldest_page_group";
    } else {
      // Hot-sector overwrite burst: the sector moves to the LRU tail.
      for (int k = 0; k < 8; ++k) {
        const std::uint64_t token = next_token++;
        ASSERT_EQ(buf->insert(sector, token, true),
                  ref.insert(sector, token, true));
      }
    }
    ASSERT_EQ(buf->size(), ref.size());
    ASSERT_EQ(buf->empty(), ref.size() == 0);
  }
}

TEST(WriteBufferDifferential, MatchesReferenceAtPageWidth4) {
  run_differential(4, 0x5eed4);
}

TEST(WriteBufferDifferential, MatchesReferenceAtPageWidth8) {
  static_assert(nand::kMaxSubpagesPerPage == 8);
  run_differential(8, 0x5eed8);
}

}  // namespace
}  // namespace esp::ftl
