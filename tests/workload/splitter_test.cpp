// ShardSplitter: the stable LBA -> (shard, local LBA) mapping behind
// intra-cell sharding. Pins the bijection, boundary splitting, flush
// broadcast and think-time conservation the determinism contract needs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "workload/splitter.h"

namespace esp {
namespace {

using workload::Request;
using workload::ShardSplitter;

TEST(ShardSplitter, MappingIsBijective) {
  // 4 shards, 2-page stripes, 4 sectors/page, 70 sectors of per-shard
  // capacity -> 8 stripes per shard (64 sectors), 256 usable.
  const ShardSplitter s(4, 2, 4, 70);
  EXPECT_EQ(s.stripe_sectors(), 8u);
  EXPECT_EQ(s.shard_sectors(), 64u);
  EXPECT_EQ(s.usable_sectors(), 256u);

  std::vector<std::vector<bool>> hit(4, std::vector<bool>(64, false));
  for (std::uint64_t g = 0; g < s.usable_sectors(); ++g) {
    const std::uint32_t shard = s.shard_of(g);
    const std::uint64_t local = s.to_local(g);
    ASSERT_LT(shard, 4u);
    ASSERT_LT(local, s.shard_sectors());
    ASSERT_FALSE(hit[shard][local]) << "collision at global " << g;
    hit[shard][local] = true;
  }
  for (const auto& per_shard : hit)
    for (const bool h : per_shard) EXPECT_TRUE(h);
}

TEST(ShardSplitter, SequentialFillArrivesSequentiallyPerShard) {
  const ShardSplitter s(2, 1, 4, 1024);
  std::uint64_t last[2] = {0, 0};
  bool seen[2] = {false, false};
  for (std::uint64_t g = 0; g < 64; ++g) {
    const std::uint32_t shard = s.shard_of(g);
    const std::uint64_t local = s.to_local(g);
    if (seen[shard]) {
      EXPECT_EQ(local, last[shard] + 1);
    }
    last[shard] = local;
    seen[shard] = true;
  }
}

TEST(ShardSplitter, SplitsAtStripeBoundaries) {
  const ShardSplitter s(2, 1, 4, 1024);  // 4-sector stripes
  Request r;
  r.type = Request::Type::kWrite;
  r.sector = 2;
  r.count = 9;  // spans sectors [2, 11): stripes 0, 1, 2
  r.sync = true;
  r.think_us = 7.0;
  std::vector<ShardSplitter::Sub> out;
  s.split(r, out);
  ASSERT_EQ(out.size(), 3u);
  // Stripe 0 -> shard 0, stripe 1 -> shard 1, stripe 2 -> shard 0.
  EXPECT_EQ(out[0].shard, 0u);
  EXPECT_EQ(out[0].request.sector, 2u);
  EXPECT_EQ(out[0].request.count, 2u);
  EXPECT_EQ(out[0].request.think_us, 7.0);
  EXPECT_EQ(out[1].shard, 1u);
  EXPECT_EQ(out[1].request.sector, 0u);
  EXPECT_EQ(out[1].request.count, 4u);
  EXPECT_EQ(out[1].request.think_us, 0.0);
  EXPECT_EQ(out[2].shard, 0u);
  EXPECT_EQ(out[2].request.sector, 4u);
  EXPECT_EQ(out[2].request.count, 3u);
  std::uint32_t total = 0;
  for (const auto& sub : out) {
    EXPECT_TRUE(sub.request.sync);
    EXPECT_EQ(sub.request.type, Request::Type::kWrite);
    total += sub.request.count;
  }
  EXPECT_EQ(total, r.count);
}

TEST(ShardSplitter, FlushBroadcasts) {
  const ShardSplitter s(3, 1, 4, 1024);
  Request r;
  r.type = Request::Type::kFlush;
  r.count = 0;
  std::vector<ShardSplitter::Sub> out;
  s.split(r, out);
  ASSERT_EQ(out.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].shard, i);
    EXPECT_EQ(out[i].request.type, Request::Type::kFlush);
  }
}

TEST(ShardSplitter, RejectsStripeLargerThanShard) {
  EXPECT_THROW(ShardSplitter(4, 64, 4, 100), std::invalid_argument);
  EXPECT_THROW(ShardSplitter(0, 1, 4, 100), std::invalid_argument);
}

TEST(PartitionStream, ConservesThinkTimePerShard) {
  // Two writes (one per shard) with think 10 each, then a broadcast flush
  // draining every shard's accumulated credit: each shard's arrival clock
  // must advance by the TOTAL stream think (20), not just its own share.
  std::vector<Request> reqs;
  Request w;
  w.type = Request::Type::kWrite;
  w.count = 4;
  w.think_us = 10.0;
  w.sector = 0;  // stripe 0 -> shard 0
  reqs.push_back(w);
  w.sector = 4;  // stripe 1 -> shard 1
  reqs.push_back(w);
  Request f;
  f.type = Request::Type::kFlush;
  reqs.push_back(f);

  workload::VectorSource source(reqs);
  const ShardSplitter s(2, 1, 4, 1024);
  const auto streams = workload::partition_stream(source, s, 0, 1);

  ASSERT_EQ(streams.size(), 2u);
  for (std::uint32_t i = 0; i < 2; ++i) {
    double think = 0.0;
    for (const Request& r : streams[i].requests) think += r.think_us;
    EXPECT_EQ(think, 20.0) << "shard " << i;
  }
  // Shard 0 received the first (warmup-prefix) original; shard 1 did not.
  EXPECT_EQ(streams[0].warmup_requests, 1u);
  EXPECT_EQ(streams[1].warmup_requests, 0u);
  // Each shard: its own write + the broadcast flush.
  EXPECT_EQ(streams[0].requests.size(), 2u);
  EXPECT_EQ(streams[1].requests.size(), 2u);
}

TEST(PartitionStream, RoutingIsOrderPreserving) {
  std::vector<Request> reqs;
  for (std::uint64_t g = 0; g < 32; g += 4) {
    Request w;
    w.type = Request::Type::kWrite;
    w.sector = g;
    w.count = 4;
    reqs.push_back(w);
  }
  workload::VectorSource source(reqs);
  const ShardSplitter s(2, 1, 4, 1024);
  const auto streams = workload::partition_stream(source, s, 0, 0);
  for (const auto& stream : streams) {
    ASSERT_EQ(stream.requests.size(), 4u);
    for (std::size_t i = 1; i < stream.requests.size(); ++i)
      EXPECT_GT(stream.requests[i].sector, stream.requests[i - 1].sector);
  }
}

}  // namespace
}  // namespace esp
