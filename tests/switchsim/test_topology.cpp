// Tests for the k-ary fat-tree topology: dimensions, addressing, and the
// routing invariants behind the paper's "5-hop fat tree" example.
#include "switchsim/topology.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/hash.hpp"

namespace dart::switchsim {
namespace {

TEST(FatTree, DimensionsK4) {
  const FatTree t(4);
  EXPECT_EQ(t.n_pods(), 4u);
  EXPECT_EQ(t.n_edge(), 8u);
  EXPECT_EQ(t.n_aggregation(), 8u);
  EXPECT_EQ(t.n_core(), 4u);
  EXPECT_EQ(t.n_switches(), 20u);
  EXPECT_EQ(t.n_hosts(), 16u);  // k^3/4
}

TEST(FatTree, DimensionsK8) {
  const FatTree t(8);
  EXPECT_EQ(t.n_core(), 16u);
  EXPECT_EQ(t.n_switches(), 80u);
  EXPECT_EQ(t.n_hosts(), 128u);
}

TEST(FatTree, SwitchIdsAreDisjointAndDescribable) {
  const FatTree t(4);
  std::set<std::uint32_t> ids;
  for (std::uint32_t p = 0; p < t.n_pods(); ++p) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      ids.insert(t.edge_id(p, i));
      ids.insert(t.agg_id(p, i));
    }
  }
  for (std::uint32_t c = 0; c < t.n_core(); ++c) ids.insert(t.core_id(c));
  EXPECT_EQ(ids.size(), t.n_switches());

  const auto edge = t.describe(t.edge_id(2, 1));
  EXPECT_EQ(edge.tier, SwitchTier::kEdge);
  EXPECT_EQ(edge.pod, 2u);
  EXPECT_EQ(edge.index, 1u);
  const auto agg = t.describe(t.agg_id(3, 0));
  EXPECT_EQ(agg.tier, SwitchTier::kAggregation);
  const auto core = t.describe(t.core_id(3));
  EXPECT_EQ(core.tier, SwitchTier::kCore);
  EXPECT_EQ(core.index, 3u);
}

TEST(FatTree, SwitchNames) {
  const FatTree t(4);
  EXPECT_EQ(t.switch_name(t.edge_id(1, 0)), "edge-p1-0");
  EXPECT_EQ(t.switch_name(t.agg_id(0, 1)), "agg-p0-1");
  EXPECT_EQ(t.switch_name(t.core_id(2)), "core-2");
}

TEST(FatTree, HostAddressingScheme) {
  const FatTree t(4);
  // Host 0: pod 0, edge 0, index 0 → 10.0.0.2.
  EXPECT_EQ(t.host_ip(0).str(), "10.0.0.2");
  // Host 3: pod 0, edge 1, index 1 → 10.0.1.3.
  EXPECT_EQ(t.host_ip(3).str(), "10.0.1.3");
  // Host 4: pod 1 begins.
  EXPECT_EQ(t.host_pod(4), 1u);
  EXPECT_EQ(t.host_ip(4).str(), "10.1.0.2");

  // locate inverts host_ip for every host of a k=4, k=6 and k=8 tree, and
  // its pod and edge switch agree with host_pod and host_edge...
  for (const FatTree& tree : {t, FatTree(6), FatTree(8)}) {
    for (std::uint32_t h = 0; h < tree.n_hosts(); ++h) {
      const auto at = tree.locate(tree.host_ip(h));
      ASSERT_TRUE(at.has_value()) << "k=" << tree.k() << " host " << h;
      EXPECT_EQ(at->host, h) << "k=" << tree.k();
      EXPECT_EQ(at->pod, tree.host_pod(h)) << "k=" << tree.k();
      EXPECT_EQ(at->edge, tree.host_edge(h)) << "k=" << tree.k();
    }
  }
  // ...and names no host for an address outside the scheme: another
  // prefix, pod = k, edge = k/2, index = k/2, or last octet 0 or 1.
  for (const auto ip : {net::Ipv4Addr::from_octets(192, 168, 1, 1),
                        net::Ipv4Addr::from_octets(10, 4, 0, 2),
                        net::Ipv4Addr::from_octets(10, 0, 2, 2),
                        net::Ipv4Addr::from_octets(10, 0, 0, 4),
                        net::Ipv4Addr::from_octets(10, 0, 0, 0),
                        net::Ipv4Addr::from_octets(10, 0, 0, 1)}) {
    EXPECT_FALSE(t.locate(ip).has_value()) << ip.str();
  }
}

TEST(FatTree, HostIpsUnique) {
  const FatTree t(8);
  std::set<std::uint32_t> ips;
  for (std::uint32_t h = 0; h < t.n_hosts(); ++h) {
    ips.insert(t.host_ip(h).value);
  }
  EXPECT_EQ(ips.size(), t.n_hosts());
}

TEST(FatTree, IntraRackPathIsOneHop) {
  const FatTree t(4);
  // Hosts 0 and 1 share edge switch 0.
  const auto p = t.path(0, 1, 12345);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], t.edge_id(0, 0));
  EXPECT_EQ(t.ecmp_path_count(0, 1), 1u);
}

TEST(FatTree, IntraPodPathIsThreeHops) {
  const FatTree t(4);
  // Host 0 (edge 0) → host 2 (edge 1), both pod 0.
  const auto p = t.path(0, 2, 999);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.front(), t.edge_id(0, 0));
  EXPECT_EQ(t.describe(p[1]).tier, SwitchTier::kAggregation);
  EXPECT_EQ(t.describe(p[1]).pod, 0u);
  EXPECT_EQ(p.back(), t.edge_id(0, 1));
  EXPECT_EQ(t.ecmp_path_count(0, 2), 2u);
}

TEST(FatTree, InterPodPathIsFiveHops) {
  const FatTree t(4);
  // Host 0 (pod 0) → host 15 (pod 3): the paper's 5-hop case.
  const auto p = t.path(0, 15, 424242);
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(t.describe(p[0]).tier, SwitchTier::kEdge);
  EXPECT_EQ(t.describe(p[1]).tier, SwitchTier::kAggregation);
  EXPECT_EQ(t.describe(p[2]).tier, SwitchTier::kCore);
  EXPECT_EQ(t.describe(p[3]).tier, SwitchTier::kAggregation);
  EXPECT_EQ(t.describe(p[4]).tier, SwitchTier::kEdge);
  EXPECT_EQ(t.describe(p[0]).pod, 0u);
  EXPECT_EQ(t.describe(p[4]).pod, 3u);
  EXPECT_EQ(t.ecmp_path_count(0, 15), 4u);  // (k/2)^2
}

TEST(FatTree, EcmpIsDeterministicPerFlowHash) {
  const FatTree t(8);
  const auto p1 = t.path(0, 100, 777);
  const auto p2 = t.path(0, 100, 777);
  EXPECT_EQ(p1, p2);
}

TEST(FatTree, EcmpSpreadsAcrossCores) {
  const FatTree t(8);
  std::set<std::uint32_t> cores_used;
  for (std::uint64_t h = 0; h < 200; ++h) {
    const auto p = t.path(0, 100, h * 0x9E3779B97F4A7C15ull);
    ASSERT_EQ(p.size(), 5u);
    cores_used.insert(p[2]);
  }
  // (k/2)^2 = 16 possible cores; expect most of them exercised.
  EXPECT_GE(cores_used.size(), 12u);
}

TEST(FatTree, CoreRowConsistency) {
  // A core switch in row r (index / half) must connect to aggregation
  // switches with index r in both pods — the structural fat-tree invariant
  // path() must respect or the route would be invalid.
  const FatTree t(4);
  for (std::uint64_t hash = 0; hash < 64; ++hash) {
    const auto p = t.path(0, 15, hash);
    ASSERT_EQ(p.size(), 5u);
    const auto up_agg = t.describe(p[1]);
    const auto core = t.describe(p[2]);
    const auto down_agg = t.describe(p[3]);
    EXPECT_EQ(core.index / 2, up_agg.index);
    EXPECT_EQ(down_agg.index, up_agg.index);
  }
}

// Property sweep over k: structural invariants hold for any size.
class FatTreeSizes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FatTreeSizes, PathLengthsValid) {
  const FatTree t(GetParam());
  const std::uint32_t hosts = t.n_hosts();
  for (std::uint32_t i = 0; i < std::min(hosts, 30u); ++i) {
    for (std::uint32_t j = 0; j < std::min(hosts, 30u); ++j) {
      if (i == j) continue;
      const auto p = t.path(i, j, i * 131 + j);
      ASSERT_TRUE(p.size() == 1 || p.size() == 3 || p.size() == 5);
      // First/last switches must be the hosts' edges.
      EXPECT_EQ(p.front(), t.host_edge(i));
      EXPECT_EQ(p.back(), t.host_edge(j));
      for (const auto sw : p) EXPECT_LT(sw, t.n_switches());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, FatTreeSizes, ::testing::Values(2u, 4u, 6u, 8u, 16u));

}  // namespace
}  // namespace dart::switchsim
