// Allocation ceilings for one KV read through the query plane. A warm
// gateway in front of 2 KV collectors holding 512 written keys answers 8
// rounds of 512 reads on each of four paths:
//  - session cache miss: a GatewaySession read that goes upstream;
//  - session cache hit: the same read answered from the gateway's cache;
//  - wire client: an OperatorClient on the gateway's virtual IPs;
//  - direct client: an OperatorClient on the query services themselves.
// Each test prints its heap allocations per read and fails above its
// ceiling. A change that lowers a count lowers its ceiling; one that raises
// a count says why in CHANGES.md.
//
// A binary of its own: it replaces the global operator new with a counting
// one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "core/cluster.hpp"
#include "core/query_service.hpp"
#include "net/netsim.hpp"
#include "query/gateway.hpp"

namespace {

std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dart::query {
namespace {

constexpr std::uint32_t kCollectors = 2;
constexpr std::uint64_t kKeys = 512;
constexpr int kRounds = 8;

std::vector<std::byte> key_of(std::uint64_t k) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &k, 8);
  return out;
}

class QueryAllocFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.n_slots = 1 << 12;
    cfg_.n_addresses = 2;
    cfg_.value_bytes = 8;
    cfg_.master_seed = 0xA110C;
    cluster_ = std::make_unique<core::CollectorCluster>(cfg_, kCollectors);
    const core::IpResolver resolver =
        [this](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
      for (const auto& [addr, node] : arp_) {
        if (addr == ip) return node;
      }
      return std::nullopt;
    };

    QueryGatewayConfig gcfg;
    gcfg.gateway_ip = net::Ipv4Addr::from_octets(10, 9, 2, 254);
    for (std::uint32_t c = 0; c < kCollectors; ++c) {
      const auto n = static_cast<std::uint8_t>(c);
      gcfg.virtual_ips.push_back(net::Ipv4Addr::from_octets(10, 9, 2, n));
      gcfg.service_ips.push_back(net::Ipv4Addr::from_octets(10, 0, 50, n));
      services_.push_back(std::make_unique<core::QueryServiceNode>(
          cluster_->collector(c), gcfg.service_ips[c], resolver));
    }
    gateway_ = std::make_unique<QueryGateway>(gcfg, cluster_->crafter(),
                                              resolver);
    wire_ = std::make_unique<core::OperatorClient>(
        cluster_->crafter(), net::Ipv4Addr::from_octets(10, 9, 9, 1),
        gcfg.virtual_ips, resolver);
    direct_ = std::make_unique<core::OperatorClient>(
        cluster_->crafter(), net::Ipv4Addr::from_octets(10, 9, 9, 2),
        gcfg.service_ips, resolver);

    const auto gw_node = sim_.add_node(*gateway_);
    arp_.emplace_back(gcfg.gateway_ip, gw_node);
    const auto wire_node = sim_.add_node(*wire_);
    arp_.emplace_back(wire_->ip(), wire_node);
    sim_.connect(wire_node, gw_node, 1000);
    const auto direct_node = sim_.add_node(*direct_);
    arp_.emplace_back(direct_->ip(), direct_node);
    for (std::uint32_t c = 0; c < kCollectors; ++c) {
      const auto svc_node = sim_.add_node(*services_[c]);
      arp_.emplace_back(gcfg.service_ips[c], svc_node);
      arp_.emplace_back(gcfg.virtual_ips[c], gw_node);
      sim_.connect(gw_node, svc_node, 1000);
      sim_.connect(direct_node, svc_node, 1000);
    }
    session_ = &gateway_->open_session();

    for (std::uint64_t k = 0; k < kKeys; ++k) {
      keys_.push_back(key_of(k));
      cluster_->write(keys_.back(), key_of(k * 7 + 1));
    }
    ids_.resize(kKeys);
  }

  // One pass of KV reads of every key through `client`: issue, run the
  // simulator, take every answer. Returns the number answered.
  template <typename Client>
  std::uint64_t read_all(Client& client) {
    for (std::uint64_t k = 0; k < kKeys; ++k) ids_[k] = client.query(keys_[k]);
    sim_.run();
    std::uint64_t answered = 0;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      answered += client.take_response(ids_[k]).has_value() ? 1 : 0;
    }
    return answered;
  }

  // Runs `prepare` (uncounted) then `pass` (counted) for one warm-up round
  // and kRounds measured rounds; returns allocations per read.
  double per_read(const char* path, const std::function<void()>& prepare,
                  const std::function<std::uint64_t()>& pass) {
    prepare();
    EXPECT_EQ(pass(), kKeys);
    std::uint64_t allocations = 0;
    std::uint64_t reads = 0;
    for (int r = 0; r < kRounds; ++r) {
      prepare();
      const std::uint64_t before = g_allocations;
      reads += pass();
      allocations += g_allocations - before;
    }
    EXPECT_EQ(reads, kRounds * kKeys);
    const double per = static_cast<double>(allocations) /
                       static_cast<double>(kRounds * kKeys);
    std::printf("%s: %.2f allocations per read\n", path, per);
    return per;
  }

  // Ticks the gateway's epoch, which empties its cache (same-epoch hits
  // only), so the next pass misses.
  void next_epoch() { gateway_->on_epoch(++epoch_); }

  core::DartConfig cfg_;
  std::unique_ptr<core::CollectorCluster> cluster_;
  net::Simulator sim_{1};
  std::vector<std::pair<net::Ipv4Addr, net::NodeId>> arp_;
  std::vector<std::unique_ptr<core::QueryServiceNode>> services_;
  std::unique_ptr<QueryGateway> gateway_;
  std::unique_ptr<core::OperatorClient> wire_;
  std::unique_ptr<core::OperatorClient> direct_;
  GatewaySession* session_ = nullptr;
  std::vector<std::vector<std::byte>> keys_;
  std::vector<std::uint64_t> ids_;
  std::uint64_t epoch_ = 0;
};

TEST_F(QueryAllocFixture, SessionCacheMiss) {
  const double per = per_read(
      "session cache miss", [this] { next_epoch(); },
      [this] { return read_all(*session_); });
  EXPECT_LE(per, 26.0);
}

TEST_F(QueryAllocFixture, SessionCacheHit) {
  const double per = per_read(
      "session cache hit",
      [this] {
        next_epoch();
        EXPECT_EQ(read_all(*session_), kKeys);
      },
      [this] { return read_all(*session_); });
  EXPECT_EQ(gateway_->upstream_sent(), (kRounds + 1) * kKeys);
  EXPECT_LE(per, 7.0);
}

TEST_F(QueryAllocFixture, WireClientThroughVirtualIps) {
  const double per = per_read(
      "wire client", [this] { next_epoch(); },
      [this] { return read_all(*wire_); });
  EXPECT_LE(per, 33.0);
}

TEST_F(QueryAllocFixture, DirectClientToServices) {
  const double per = per_read(
      "direct client", [] {}, [this] { return read_all(*direct_); });
  EXPECT_LE(per, 14.0);
}

}  // namespace
}  // namespace dart::query
