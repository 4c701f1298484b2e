// Tests for Collector (RNIC-backed store) and CollectorCluster (the
// logically centralized, hash-sharded storage of §3).
#include "core/cluster.hpp"
#include "core/collector.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/report_crafter.hpp"

namespace dart::core {
namespace {

DartConfig config() {
  DartConfig cfg;
  cfg.n_slots = 4096;
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 8;
  cfg.master_seed = 21;
  return cfg;
}

std::vector<std::byte> value_of(std::uint64_t v) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

std::span<const std::byte> bytes_of(const std::string& s) {
  return std::as_bytes(std::span{s.data(), s.size()});
}

TEST(Collector, ExposesRemoteInfo) {
  const CollectorEndpoint ep{{2, 0, 0, 0, 0, 1},
                             net::Ipv4Addr::from_octets(10, 0, 100, 1)};
  Collector c(config(), 7, ep);
  const auto info = c.remote_info();
  EXPECT_EQ(info.collector_id, 7u);
  EXPECT_EQ(info.qpn, Collector::qpn_for(7));
  EXPECT_NE(info.rkey, 0u);
  EXPECT_EQ(info.n_slots, 4096u);
  EXPECT_EQ(info.slot_bytes, 12u);
  EXPECT_EQ(info.base_vaddr, Collector::kDefaultBaseVaddr);
}

TEST(Collector, RdmaReportBecomesQueryable) {
  // The zero-CPU path end to end: craft a report frame, push it through the
  // RNIC, query the value back — no store.write() anywhere.
  const CollectorEndpoint ep{{2, 0, 0, 0, 0, 1},
                             net::Ipv4Addr::from_octets(10, 0, 100, 1)};
  Collector c(config(), 0, ep);
  const ReportCrafter crafter(config());
  ReporterEndpoint src;
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);

  const std::string key = "flow-X";
  const auto value = value_of(0x1234);
  const auto tpl = crafter.make_write_template(c.remote_info(), src);
  std::vector<std::byte> frame(tpl.frame_size());
  for (std::uint32_t n = 0; n < 2; ++n) {
    ASSERT_EQ(crafter.craft_write_into(tpl, bytes_of(key), value, n, n, frame),
              frame.size());
    ASSERT_TRUE(c.rnic().process_frame(frame).has_value());
  }
  EXPECT_EQ(c.ingest_counters().writes, 2u);

  const auto result = c.query(bytes_of(key));
  ASSERT_EQ(result.outcome, QueryOutcome::kFound);
  std::uint64_t got;
  std::memcpy(&got, result.value.data(), 8);
  EXPECT_EQ(got, 0x1234u);
}

TEST(Collector, ForeignRkeyRejected) {
  const CollectorEndpoint ep{{2, 0, 0, 0, 0, 1},
                             net::Ipv4Addr::from_octets(10, 0, 100, 1)};
  Collector a(config(), 0, ep);
  Collector b(config(), 1, ep);
  const ReportCrafter crafter(config());
  ReporterEndpoint src;

  // Craft against B's directory entry but deliver to A: A's RNIC must
  // reject the unknown rkey (and/or QPN) instead of writing.
  auto info = b.remote_info();
  info.qpn = a.remote_info().qpn;  // valid QP at A, but B's rkey
  const std::string key = "flow-Y";
  const auto tpl = crafter.make_write_template(info, src);
  std::vector<std::byte> frame(tpl.frame_size());
  ASSERT_EQ(
      crafter.craft_write_into(tpl, bytes_of(key), value_of(1), 0, 0, frame),
      frame.size());
  EXPECT_FALSE(a.rnic().process_frame(frame).has_value());
  EXPECT_EQ(a.ingest_counters().bad_rkey, 1u);
}

TEST(Cluster, DirectorySizedAndConsistent) {
  CollectorCluster cluster(config(), 4);
  EXPECT_EQ(cluster.size(), 4u);
  ASSERT_EQ(cluster.directory().size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.directory()[i].collector_id, i);
    EXPECT_EQ(cluster.collector(i).id(), i);
  }
}

TEST(Cluster, ZeroCollectorsClampedToOne) {
  CollectorCluster cluster(config(), 0);
  EXPECT_EQ(cluster.size(), 1u);
}

TEST(Cluster, WriteAndQueryRouteConsistently) {
  CollectorCluster cluster(config(), 4);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "flow-" + std::to_string(i);
    cluster.write(bytes_of(key), value_of(static_cast<std::uint64_t>(i)));
  }
  int found = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "flow-" + std::to_string(i);
    const auto r = cluster.query(bytes_of(key));
    if (r.outcome == QueryOutcome::kFound) {
      std::uint64_t got;
      std::memcpy(&got, r.value.data(), 8);
      EXPECT_EQ(got, static_cast<std::uint64_t>(i));
      ++found;
    }
  }
  // 200 keys over 4×4096 slots: load is tiny, nearly everything queryable.
  EXPECT_GE(found, 195);
}

TEST(Cluster, AllCopiesOfAKeyLiveOnOneCollector) {
  // §3.1: data duplicates for any one key are held at a single collector.
  CollectorCluster cluster(config(), 4);
  const std::string key = "flow-locality";
  cluster.write(bytes_of(key), value_of(5));
  const auto owner = cluster.owner_of(bytes_of(key));
  std::uint64_t writes_elsewhere = 0;
  for (std::uint32_t c = 0; c < cluster.size(); ++c) {
    if (c != owner) {
      writes_elsewhere += cluster.collector(c).store().writes_performed();
    }
  }
  EXPECT_EQ(writes_elsewhere, 0u);
  EXPECT_EQ(cluster.collector(owner).store().writes_performed(), 2u);
}

TEST(Cluster, KeysSpreadAcrossCollectors) {
  CollectorCluster cluster(config(), 4);
  std::array<int, 4> per_collector{};
  for (int i = 0; i < 400; ++i) {
    const std::string key = "spread-" + std::to_string(i);
    ++per_collector[cluster.owner_of(bytes_of(key))];
  }
  for (const int c : per_collector) EXPECT_GT(c, 50);
}

TEST(Cluster, QueriesForUnknownKeysAreEmpty) {
  CollectorCluster cluster(config(), 2);
  EXPECT_EQ(cluster.query(bytes_of(std::string{"nothing"})).outcome,
            QueryOutcome::kEmpty);
}

}  // namespace
}  // namespace dart::core
