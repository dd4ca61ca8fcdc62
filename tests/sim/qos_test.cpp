// QoS layer unit tests: namespace partitioning, scheduler policy
// semantics, and the tenant mux's isolation/accounting contracts.
#include "sim/qos.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "ftl/sub_ftl.h"
#include "nand/device.h"
#include "sim/driver.h"
#include "sim/tenant_mux.h"
#include "workload/request.h"

namespace esp::sim {
namespace {

using workload::Request;

TEST(QosPolicyNames, RoundTrip) {
  for (const auto policy : {QosPolicy::kFifo, QosPolicy::kRoundRobin,
                            QosPolicy::kWeightedShare}) {
    const auto parsed = parse_qos_policy(qos_policy_name(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(parse_qos_policy("priority").has_value());
}

TEST(PartitionNamespaces, EqualPageAlignedSlices) {
  const auto ns = partition_namespaces(2048, 2, 4);
  ASSERT_EQ(ns.size(), 2u);
  EXPECT_EQ(ns[0].base, 0u);
  EXPECT_EQ(ns[0].sectors, 1024u);
  EXPECT_EQ(ns[1].base, 1024u);
  EXPECT_EQ(ns[1].sectors, 1024u);
  // A non-divisible split still yields equal page-aligned slices.
  const auto odd = partition_namespaces(2044, 3, 4);
  ASSERT_EQ(odd.size(), 3u);
  for (const auto& s : odd) {
    EXPECT_EQ(s.base % 4, 0u);
    EXPECT_EQ(s.sectors % 4, 0u);
    EXPECT_EQ(s.sectors, odd[0].sectors);
  }
}

TEST(PartitionNamespaces, RejectsDegenerateShapes) {
  EXPECT_THROW(partition_namespaces(2048, 0, 4), std::invalid_argument);
  EXPECT_THROW(partition_namespaces(2048, 2, 0), std::invalid_argument);
  // 4 logical pages cannot give 5 tenants a page each.
  EXPECT_THROW(partition_namespaces(16, 5, 4), std::invalid_argument);
}

LaneState lane(SimTime arrival, SimTime ready, std::uint32_t cost = 1,
               double weight = 1.0) {
  LaneState s;
  s.pending = true;
  s.arrival = arrival;
  s.ready = ready;
  s.cost = cost;
  s.weight = weight;
  return s;
}

TEST(QosScheduler, FifoPicksOldestEligibleArrival) {
  QosScheduler sched(QosPolicy::kFifo, 3);
  std::vector<LaneState> lanes{lane(500.0, 0.0), lane(100.0, 0.0),
                               lane(300.0, 0.0)};
  EXPECT_EQ(sched.pick(lanes, 1000.0), 1u);
  // A lane whose ready time is past the horizon is not eligible, even if
  // its arrival is the oldest.
  lanes[1].ready = 5000.0;
  EXPECT_EQ(sched.pick(lanes, 1000.0), 2u);
  // When no lane is eligible, the earliest-ready one is served (device
  // idles until it arrives) instead of deadlocking.
  for (auto& l : lanes) l.ready = 9000.0;
  lanes[0].ready = 8000.0;
  EXPECT_EQ(sched.pick(lanes, 1000.0), 0u);
}

TEST(QosScheduler, RoundRobinAlternatesOverLanesWithWork) {
  QosScheduler sched(QosPolicy::kRoundRobin, 3);
  std::vector<LaneState> lanes{lane(0.0, 0.0), lane(0.0, 0.0),
                               lane(0.0, 0.0)};
  std::vector<std::size_t> order;
  for (int i = 0; i < 6; ++i) {
    const auto picked = sched.pick(lanes, 100.0);
    sched.charge(picked, lanes[picked]);
    order.push_back(picked);
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0, 1, 2, 0}));
  // A lane without work is skipped, not waited for.
  lanes[2].pending = false;
  const auto after = sched.pick(lanes, 100.0);
  EXPECT_EQ(after, 1u);  // cursor at 0, lane 1 next with work
}

TEST(QosScheduler, WeightedShareServesProportionallyToWeight) {
  QosScheduler sched(QosPolicy::kWeightedShare, 2);
  std::vector<LaneState> lanes{lane(0.0, 0.0, 1, 8.0),
                               lane(0.0, 0.0, 1, 1.0)};
  int heavy = 0;
  for (int i = 0; i < 90; ++i) {
    const auto picked = sched.pick(lanes, 100.0);
    sched.charge(picked, lanes[picked]);
    if (picked == 0) ++heavy;
  }
  // 8:1 weights with equal cost: the heavy lane gets ~8/9 of the picks.
  EXPECT_NEAR(heavy, 80, 4);
}

TEST(QosScheduler, WeightedShareChargesByCost) {
  QosScheduler sched(QosPolicy::kWeightedShare, 2);
  // Equal weights, 4x cost difference: the cheap lane is served ~4x as
  // often (bytes-fair, not requests-fair).
  std::vector<LaneState> lanes{lane(0.0, 0.0, 4, 1.0),
                               lane(0.0, 0.0, 1, 1.0)};
  int cheap = 0;
  for (int i = 0; i < 100; ++i) {
    const auto picked = sched.pick(lanes, 100.0);
    sched.charge(picked, lanes[picked]);
    if (picked == 1) ++cheap;
  }
  EXPECT_NEAR(cheap, 80, 4);
}

TEST(QosScheduler, WeightedShareIdleLaneHoardsNoCredit) {
  QosScheduler sched(QosPolicy::kWeightedShare, 2);
  std::vector<LaneState> lanes{lane(0.0, 0.0), lane(0.0, 0.0)};
  // Lane 1 idles while lane 0 is served many times.
  lanes[1].pending = false;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(sched.pick(lanes, 100.0), 0u);
    sched.charge(0, lanes[0]);
  }
  // When lane 1 returns it re-enters at the current virtual time: it gets
  // its fair share from NOW on, not 50 back-picks of hoarded credit.
  lanes[1].pending = true;
  int one = 0;
  for (int i = 0; i < 10; ++i) {
    const auto picked = sched.pick(lanes, 100.0);
    sched.charge(picked, lanes[picked]);
    if (picked == 1) ++one;
  }
  EXPECT_LE(one, 6);
  EXPECT_GE(one, 4);
}

// ---------------------------------------------------------------------
// TenantMux integration over a real FTL.

nand::Geometry mux_geo() {
  nand::Geometry geo;
  geo.channels = 2;
  geo.chips_per_channel = 2;
  geo.blocks_per_chip = 16;
  geo.pages_per_block = 32;
  geo.page_bytes = 16 * 1024;
  geo.subpages_per_page = 4;
  return geo;
}

class FixedSource final : public workload::RequestSource {
 public:
  explicit FixedSource(std::vector<Request> requests)
      : requests_(std::move(requests)) {}
  std::optional<Request> next() override {
    if (next_ >= requests_.size()) return std::nullopt;
    return requests_[next_++];
  }

 private:
  std::vector<Request> requests_;
  std::size_t next_ = 0;
};

struct MuxFixture {
  MuxFixture() : dev(mux_geo()) {
    ftl::SubFtl::Config cfg;
    cfg.logical_sectors = 2048;
    ftl = std::make_unique<ftl::SubFtl>(dev, cfg);
    driver = std::make_unique<sim::Driver>(*ftl, dev, 8);
  }
  TenantMux::Lane make_lane(const std::string& name,
                            const TenantNamespace& ns,
                            workload::RequestSource* source,
                            double weight = 1.0, std::uint32_t qd = 4) {
    TenantMux::Lane lane;
    lane.config.name = name;
    lane.config.weight = weight;
    lane.config.queue_depth = qd;
    lane.ns = ns;
    lane.source = source;
    return lane;
  }
  nand::NandDevice dev;
  std::unique_ptr<ftl::SubFtl> ftl;
  std::unique_ptr<sim::Driver> driver;
};

TEST(TenantMux, RebasesTenantLocalSectorsIntoSlices) {
  MuxFixture fx;
  const auto ns = partition_namespaces(2048, 2, 4);
  // Both tenants write THEIR OWN sector 0; the rebase must land them in
  // different shared-space pages.
  std::vector<Request> w{{Request::Type::kWrite, 0, 4, false, 0.0}};
  FixedSource src_a(w), src_b(w);
  TenantMux mux(*fx.driver, QosPolicy::kFifo,
                {fx.make_lane("a", ns[0], &src_a),
                 fx.make_lane("b", ns[1], &src_b)});
  const auto out = mux.run(/*verify=*/true);
  EXPECT_EQ(out.window.requests, 2u);
  EXPECT_NE(fx.driver->expected_token(0), 0u);
  EXPECT_NE(fx.driver->expected_token(ns[1].base), 0u);
  EXPECT_EQ(fx.driver->verify_failures(), 0u);
  ASSERT_EQ(out.tenants.size(), 2u);
  EXPECT_EQ(out.tenants[0].host_write_sectors, 4u);
  EXPECT_EQ(out.tenants[1].host_write_sectors, 4u);
}

TEST(TenantMux, RejectsRequestOutsideTenantNamespace) {
  MuxFixture fx;
  const auto ns = partition_namespaces(2048, 2, 4);
  // A tenant-local sector at its slice length is one past the end.
  std::vector<Request> bad{
      {Request::Type::kWrite, ns[0].sectors, 4, false, 0.0}};
  FixedSource src(bad);
  TenantMux mux(*fx.driver, QosPolicy::kFifo,
                {fx.make_lane("a", ns[0], &src)});
  EXPECT_THROW(mux.run(false), std::out_of_range);
}

TEST(TenantMux, PerTenantMetricsSeparateReadsAndWrites) {
  MuxFixture fx;
  const auto ns = partition_namespaces(2048, 2, 4);
  std::vector<Request> writes, reads;
  for (int i = 0; i < 8; ++i)
    writes.push_back({Request::Type::kWrite, i * 4ull, 4, false, 0.0});
  for (int i = 0; i < 8; ++i) {
    reads.push_back({Request::Type::kWrite, i * 4ull, 1, false, 0.0});
    reads.push_back({Request::Type::kRead, i * 4ull, 1, false, 0.0});
  }
  FixedSource wsrc(writes), rsrc(reads);
  TenantMux mux(*fx.driver, QosPolicy::kRoundRobin,
                {fx.make_lane("bulk", ns[0], &wsrc),
                 fx.make_lane("point", ns[1], &rsrc)});
  const auto out = mux.run(/*verify=*/true);
  ASSERT_EQ(out.tenants.size(), 2u);
  const auto& bulk = out.tenants[0];
  const auto& point = out.tenants[1];
  EXPECT_EQ(bulk.name, "bulk");
  EXPECT_EQ(bulk.write_requests, 8u);
  EXPECT_EQ(bulk.read_requests, 0u);
  EXPECT_EQ(bulk.host_write_sectors, 32u);
  EXPECT_EQ(point.write_requests, 8u);
  EXPECT_EQ(point.read_requests, 8u);
  EXPECT_EQ(point.host_read_sectors, 8u);
  EXPECT_EQ(bulk.service_hist.total(), 8u);
  EXPECT_EQ(point.response_hist.total(), 16u);
  // Response can never undercut service: arrival <= issue.
  EXPECT_GE(point.response_p99_us, point.service_p99_us);
  EXPECT_DOUBLE_EQ(bulk.write_share(out.total_host_write_sectors()),
                   32.0 / 40.0);
  // The whole window sums the tenants'.
  EXPECT_EQ(out.window.requests, 24u);
  EXPECT_EQ(out.window.write_requests, 16u);
  EXPECT_EQ(out.window.read_requests, 8u);
  EXPECT_EQ(out.window.latency_hist.total(), 24u);
  EXPECT_EQ(out.window.verify_failures, 0u);
  EXPECT_EQ(out.window.io_errors, 0u);
}

TEST(TenantMux, WarmupThenMeasureReportSeparateWindows) {
  MuxFixture fx;
  const auto ns = partition_namespaces(2048, 1, 4);
  std::vector<Request> stream;
  for (int i = 0; i < 20; ++i)
    stream.push_back({Request::Type::kWrite, (i % 8) * 4ull, 4, false, 0.0});
  FixedSource src(stream);
  TenantMux mux(*fx.driver, QosPolicy::kFifo,
                {fx.make_lane("only", ns[0], &src)});
  const auto warm = mux.run(false, 12);
  const auto meas = mux.run(false);
  EXPECT_EQ(warm.window.requests, 12u);
  EXPECT_EQ(meas.window.requests, 8u);
  // Each window's histograms hold exactly that window's requests.
  EXPECT_EQ(warm.tenants[0].service_hist.total(), 12u);
  EXPECT_EQ(meas.tenants[0].service_hist.total(), 8u);
  EXPECT_EQ(warm.window.latency_hist.total(), 12u);
  EXPECT_EQ(meas.window.response_hist.total(), 8u);
  EXPECT_GE(meas.window.start_us, warm.window.end_us);
}

}  // namespace
}  // namespace esp::sim
