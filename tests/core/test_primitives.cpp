// Tests for the DTA translator primitives (primitives.hpp): the local
// reference models, the wire path (crafted frames → simulated RNIC → region
// memory), and the primitive query plane end to end over the fabric
// simulator.
#include "core/primitives.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "check/reference_crafter.hpp"
#include "core/collector.hpp"
#include "core/oracle.hpp"
#include "core/query_service.hpp"
#include "core/report_crafter.hpp"
#include "net/netsim.hpp"
#include "rdma/roce.hpp"

namespace dart::core {
namespace {

std::vector<std::byte> value_of(std::uint64_t v, std::uint32_t bytes) {
  std::vector<std::byte> out(bytes);
  for (std::uint32_t j = 0; j < bytes; ++j) {
    out[j] = static_cast<std::byte>((v * 13 + j) & 0xFF);
  }
  return out;
}

// ---------------------------------------------------------------------------
// AppendRing — local model
// ---------------------------------------------------------------------------

TEST(AppendRing, DrainReturnsEntriesInSequenceOrder) {
  AppendRingConfig cfg;
  cfg.n_entries = 8;
  cfg.value_bytes = 4;
  AppendRing ring(cfg);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    ring.write_entry(seq, value_of(seq, 4));
  }
  const auto d = ring.drain();
  ASSERT_EQ(d.entries.size(), 5u);
  EXPECT_EQ(d.missed, 0u);
  EXPECT_EQ(d.next_seq, 6u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(d.entries[i].seq, i + 1);
    EXPECT_EQ(d.entries[i].value, value_of(i + 1, 4));
  }
  // Drained entries are not returned twice.
  EXPECT_TRUE(ring.drain().entries.empty());
}

TEST(AppendRing, WrapOverwritesOldestAndCountsMissed) {
  AppendRingConfig cfg;
  cfg.n_entries = 4;
  cfg.value_bytes = 4;
  AppendRing ring(cfg);
  // 6 appends into a 4-slot ring: seqs 1 and 2 are lapped before any read.
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    ring.write_entry(seq, value_of(seq, 4));
  }
  const auto d = ring.drain();
  ASSERT_EQ(d.entries.size(), 4u);
  EXPECT_EQ(d.entries.front().seq, 3u);
  EXPECT_EQ(d.entries.back().seq, 6u);
  EXPECT_EQ(d.missed, 2u);
  EXPECT_EQ(ring.missed_total(), 2u);
  EXPECT_EQ(ring.cursor(), 7u);
}

TEST(AppendRing, LostReportsLeaveCountedHoles) {
  AppendRingConfig cfg;
  cfg.n_entries = 8;
  cfg.value_bytes = 4;
  AppendRing ring(cfg);
  // The switch consumed seqs 1..4 but seq 2's frame was lost in transit.
  for (const std::uint64_t seq : {1ull, 3ull, 4ull}) {
    ring.write_entry(seq, value_of(seq, 4));
  }
  const auto d = ring.drain();
  ASSERT_EQ(d.entries.size(), 3u);
  EXPECT_EQ(d.missed, 1u);  // the hole at seq 2
  EXPECT_EQ(d.next_seq, 5u);
}

TEST(AppendRing, DrainHonorsEntryCap) {
  AppendRingConfig cfg;
  cfg.n_entries = 8;
  cfg.value_bytes = 4;
  AppendRing ring(cfg);
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    ring.write_entry(seq, value_of(seq, 4));
  }
  const auto first = ring.drain(2);
  ASSERT_EQ(first.entries.size(), 2u);
  EXPECT_EQ(first.entries.back().seq, 2u);
  const auto rest = ring.drain();
  ASSERT_EQ(rest.entries.size(), 4u);
  EXPECT_EQ(rest.entries.front().seq, 3u);
}

TEST(AppendRing, EncodeEntryIsSeqLePlusValue) {
  std::vector<std::byte> out;
  AppendRing::encode_entry(0x0102'0304'0506'0708ull, value_of(1, 4), out);
  ASSERT_EQ(out.size(), 12u);
  std::uint64_t seq;
  std::memcpy(&seq, out.data(), 8);
  EXPECT_EQ(seq, 0x0102'0304'0506'0708ull);
  EXPECT_TRUE(std::memcmp(out.data() + 8, value_of(1, 4).data(), 4) == 0);
}

// ---------------------------------------------------------------------------
// Counter cells (the Key-Increment array) / PostcardStore — local models
// ---------------------------------------------------------------------------

TEST(CounterCellArray, FetchAddMirrorsRdmaSemantics) {
  CounterArrayConfig cfg;
  cfg.n_counters = 16;
  cfg.seed = 5;
  CellSheet cells(cfg.geometry());
  const auto key = sim_key(3);
  EXPECT_EQ(cells.fetch_add(key, 7), 0u);  // returns the prior value
  EXPECT_EQ(cells.fetch_add(key, 2), 7u);
  EXPECT_EQ(cells.estimate(key), 9u);
  EXPECT_EQ(cells.read_cell(cfg.index_of(key)), 9u);
}

TEST(CounterCellArray, AgreesWithReferenceCellForCell) {
  // The config's addressing (what the switch crafts with) and the sheet's
  // adds land on the reference cell of every key.
  CounterArrayConfig cfg;
  cfg.n_counters = 64;
  cfg.seed = 11;
  CellSheet cells(cfg.geometry());
  std::vector<std::uint64_t> tally(cfg.n_counters, 0);
  for (std::uint64_t k = 0; k < 200; ++k) {
    const std::uint64_t want =
        check::reference_counter_cell(sim_key(k), cfg.seed, cfg.n_counters);
    EXPECT_EQ(cfg.index_of(sim_key(k)), want) << k;
    (void)cells.fetch_add(sim_key(k), k + 1);
    tally[want] += k + 1;
  }
  for (std::uint64_t c = 0; c < cfg.n_counters; ++c) {
    EXPECT_EQ(cells.read_cell(c), tally[c]) << c;
  }
}

TEST(PostcardStore, GroupAssemblyTracksReportedHops) {
  PostcardConfig cfg;
  cfg.n_groups = 4;
  cfg.max_hops = 4;
  cfg.checksum_bits = 16;
  cfg.value_bytes = 4;
  cfg.seed = 9;
  PostcardStore store(cfg);
  const auto flow = sim_key(1);
  store.write_hop(flow, 0, value_of(10, 4));
  store.write_hop(flow, 2, value_of(12, 4));

  const auto view = store.read_group(flow);
  EXPECT_EQ(view.group, cfg.group_of(flow));
  EXPECT_EQ(view.valid_mask, 0b101u);
  ASSERT_EQ(view.hops.size(), 4u);
  EXPECT_EQ(view.hops[0], value_of(10, 4));
  EXPECT_EQ(view.hops[2], value_of(12, 4));
}

TEST(PostcardStore, GroupCollisionStealsSlotValidity) {
  // Two flows in the same group: the later writer of a hop slot owns its
  // validity bit; the earlier flow's read no longer vouches for that hop.
  PostcardConfig cfg;
  cfg.n_groups = 1;  // force the collision
  cfg.max_hops = 2;
  cfg.checksum_bits = 16;
  cfg.value_bytes = 4;
  cfg.seed = 9;
  PostcardStore store(cfg);
  const auto a = sim_key(1);
  const auto b = sim_key(2);
  ASSERT_NE(cfg.checksum_of(a), cfg.checksum_of(b));

  store.write_hop(a, 0, value_of(1, 4));
  store.write_hop(b, 0, value_of(2, 4));
  EXPECT_EQ(store.read_group(a).valid_mask, 0u);
  EXPECT_EQ(store.read_group(b).valid_mask, 0b1u);
  EXPECT_EQ(store.read_group(b).hops[0], value_of(2, 4));
}

TEST(Primitives, DefaultConfigIsValidAndSeeded) {
  const auto prim = default_primitives(0xABCD);
  EXPECT_TRUE(prim.valid());
  const auto other = default_primitives(0xABCE);
  EXPECT_NE(prim.counters.seed, other.counters.seed);
  // Counter and group hashes must not alias even though both sub-seeds come
  // from one master seed (group_of salts internally): a key's counter cell
  // index and postcard group must not be the same permutation.
  PostcardConfig pc = prim.postcards;
  CounterArrayConfig ctr = prim.counters;
  pc.n_groups = ctr.n_counters = 1024;
  bool diverged = false;
  for (std::uint64_t k = 0; k < 16 && !diverged; ++k) {
    diverged = ctr.index_of(sim_key(k)) != pc.group_of(sim_key(k));
  }
  EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------------
// Wire path: crafted frames through the simulated RNIC
// ---------------------------------------------------------------------------

class PrimitiveWireFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.n_slots = 256;
    cfg_.n_addresses = 2;
    cfg_.checksum_bits = 32;
    cfg_.value_bytes = 8;
    cfg_.master_seed = 0xDA27'11;
    CollectorEndpoint ep;
    ep.mac = {0x02, 0, 0, 0, 0, 1};
    ep.ip = net::Ipv4Addr::from_octets(10, 0, 100, 1);
    collector_ = std::make_unique<Collector>(cfg_, 0, ep);
    prim_ = default_primitives(cfg_.master_seed);
    prim_.ring.n_entries = 8;
    prim_.ring.value_bytes = 8;
    prim_.postcards.n_groups = 4;
    prim_.postcards.max_hops = 4;
    ASSERT_TRUE(collector_->enable_primitives(prim_).ok());
    crafter_ = std::make_unique<ReportCrafter>(cfg_);
    src_.mac = {0xAA, 0xBB, 0xCC, 0, 0, 1};
    src_.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  }

  DartConfig cfg_;
  DtaPrimitivesConfig prim_;
  std::unique_ptr<Collector> collector_;
  std::unique_ptr<ReportCrafter> crafter_;
  ReporterEndpoint src_;
};

TEST_F(PrimitiveWireFixture, AppendFramesLandInRingSlots) {
  const auto dst = collector_->remote_ring_info();
  const auto tpl = crafter_->make_append_template(dst, src_, prim_.ring);
  std::vector<std::byte> frame(tpl.frame_size());
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {  // wraps the 8-entry ring
    ASSERT_EQ(crafter_->craft_append_into(
                  tpl, prim_.ring, seq, value_of(seq, prim_.ring.value_bytes),
                  static_cast<std::uint32_t>(seq), frame),
              frame.size());
    collector_->rnic().process_frame(frame);
  }
  const auto& c = collector_->ingest_counters();
  EXPECT_EQ(c.executed.load(), 10u);
  const auto d = collector_->ring().drain();
  ASSERT_EQ(d.entries.size(), 8u);
  EXPECT_EQ(d.entries.front().seq, 3u);  // 1 and 2 lapped
  EXPECT_EQ(d.missed, 2u);
  for (const auto& e : d.entries) {
    EXPECT_EQ(e.value, value_of(e.seq, prim_.ring.value_bytes));
  }
}

TEST_F(PrimitiveWireFixture, KeyIncrementFramesAggregateInCells) {
  const auto dst = collector_->remote_counter_info();
  // Two "switches" (distinct PSN spaces don't matter for FETCH_ADD) add
  // into one array: the result is the network-wide aggregate.
  const auto tpl =
      crafter_->make_atomic_template(dst, src_, rdma::Opcode::kRcFetchAdd);
  std::vector<std::byte> frame(tpl.frame_size());
  for (std::uint32_t psn = 0; psn < 6; ++psn) {
    ASSERT_EQ(crafter_->craft_key_increment_into(
                  tpl, prim_.counters, sim_key(psn % 2), 10 + psn, psn, frame),
              frame.size());
    collector_->rnic().process_frame(frame);
  }
  EXPECT_EQ(collector_->ingest_counters().fetch_adds.load(), 6u);
  // Key 0 got psn 0,2,4 → 10+12+14; key 1 got 11+13+15.
  EXPECT_EQ(collector_->counters().estimate(sim_key(0)), 36u);
  EXPECT_EQ(collector_->counters().estimate(sim_key(1)), 39u);
}

TEST_F(PrimitiveWireFixture, PostcardFramesAssembleTheFlowPath) {
  const auto dst = collector_->remote_postcard_info();
  const auto flow = sim_key(7);
  const auto tpl = crafter_->make_postcard_template(dst, src_, prim_.postcards);
  std::vector<std::byte> frame(tpl.frame_size());
  for (const std::uint32_t hop : {0u, 1u, 3u}) {
    ASSERT_EQ(crafter_->craft_postcard_into(
                  tpl, prim_.postcards, flow, hop,
                  value_of(100 + hop, prim_.postcards.value_bytes), hop, frame),
              frame.size());
    collector_->rnic().process_frame(frame);
  }
  const auto view = collector_->postcards().read_group(flow);
  EXPECT_EQ(view.valid_mask, 0b1011u);
  EXPECT_EQ(view.hops[0], value_of(100, prim_.postcards.value_bytes));
  EXPECT_EQ(view.hops[3], value_of(103, prim_.postcards.value_bytes));
}

TEST_F(PrimitiveWireFixture, TemplatePathsAreByteIdentical) {
  const auto ring_dst = collector_->remote_ring_info();
  const auto ctr_dst = collector_->remote_counter_info();
  const auto pc_dst = collector_->remote_postcard_info();

  const auto append_tpl = crafter_->make_append_template(ring_dst, src_, prim_.ring);
  const auto inc_tpl =
      crafter_->make_atomic_template(ctr_dst, src_, rdma::Opcode::kRcFetchAdd);
  const auto pc_tpl =
      crafter_->make_postcard_template(pc_dst, src_, prim_.postcards);

  const auto value = value_of(5, prim_.ring.value_bytes);
  std::vector<std::byte> fast(append_tpl.frame_size());
  auto n = crafter_->craft_append_into(append_tpl, prim_.ring, 12, value, 9, fast);
  fast.resize(n);
  const check::ReferenceCrafter reference(cfg_);
  EXPECT_EQ(fast,
            reference.craft_append(ring_dst, src_, prim_.ring, 12, value, 9));

  fast.assign(inc_tpl.frame_size(), std::byte{0});
  n = crafter_->craft_key_increment_into(inc_tpl, prim_.counters, sim_key(4),
                                         77, 9, fast);
  fast.resize(n);
  EXPECT_EQ(fast, reference.craft_key_increment(ctr_dst, src_, prim_.counters,
                                                sim_key(4), 77, 9));

  const auto pv = value_of(6, prim_.postcards.value_bytes);
  fast.assign(pc_tpl.frame_size(), std::byte{0});
  n = crafter_->craft_postcard_into(pc_tpl, prim_.postcards, sim_key(4), 2, pv,
                                    9, fast);
  fast.resize(n);
  EXPECT_EQ(fast, reference.craft_postcard(pc_dst, src_, prim_.postcards,
                                           sim_key(4), 2, pv, 9));
}

TEST_F(PrimitiveWireFixture, MisdirectedAtomicCannotTouchRingRegion) {
  // The ring MR withholds remote-atomic access: a FETCH_ADD aimed at the
  // ring's rkey must be refused without dirtying ring memory.
  const auto ring_as_atomic_target = collector_->remote_ring_info();
  const auto tpl = crafter_->make_atomic_template(
      ring_as_atomic_target, src_, rdma::Opcode::kRcFetchAdd);
  std::vector<std::byte> frame(tpl.frame_size());
  ASSERT_EQ(crafter_->craft_fetch_add_into(
                tpl, ring_as_atomic_target.base_vaddr, 1, 0, frame),
            frame.size());
  collector_->rnic().process_frame(frame);
  EXPECT_EQ(collector_->ingest_counters().fetch_adds.load(), 0u);
  EXPECT_EQ(collector_->ring().entry_seq(0), 0u);  // slot 0 untouched
}

// ---------------------------------------------------------------------------
// Primitive query plane end to end
// ---------------------------------------------------------------------------

class PrimitiveQueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.n_slots = 256;
    cfg_.n_addresses = 2;
    cfg_.value_bytes = 8;
    cfg_.master_seed = 0x0E;
    CollectorEndpoint ep;
    ep.mac = {0x02, 0, 0, 0, 0, 1};
    ep.ip = net::Ipv4Addr::from_octets(10, 0, 100, 0);
    collector_ = std::make_unique<Collector>(cfg_, 0, ep);
    prim_ = default_primitives(cfg_.master_seed);
    prim_.ring.n_entries = 16;
    ASSERT_TRUE(collector_->enable_primitives(prim_).ok());
    crafter_ = std::make_unique<ReportCrafter>(cfg_);

    const auto service_ip = net::Ipv4Addr::from_octets(10, 0, 100, 100);
    auto resolver = [this](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
      for (const auto& [addr, node] : arp_) {
        if (addr == ip) return node;
      }
      return std::nullopt;
    };
    service_ = std::make_unique<QueryServiceNode>(*collector_, service_ip,
                                                  resolver);
    const auto operator_ip = net::Ipv4Addr::from_octets(10, 9, 0, 1);
    operator_ = std::make_unique<OperatorClient>(
        *crafter_, operator_ip, std::vector<net::Ipv4Addr>{service_ip},
        resolver);

    const auto op_node = sim_.add_node(*operator_);
    const auto svc_node = sim_.add_node(*service_);
    arp_.emplace_back(operator_ip, op_node);
    arp_.emplace_back(service_ip, svc_node);
    sim_.connect(op_node, svc_node, /*latency_ns=*/2000);
  }

  net::Simulator sim_{1};
  DartConfig cfg_;
  DtaPrimitivesConfig prim_;
  std::unique_ptr<Collector> collector_;
  std::unique_ptr<ReportCrafter> crafter_;
  std::unique_ptr<QueryServiceNode> service_;
  std::unique_ptr<OperatorClient> operator_;
  std::vector<std::pair<net::Ipv4Addr, net::NodeId>> arp_;
};

TEST_F(PrimitiveQueryFixture, DrainRingOverTheWire) {
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    collector_->ring().write_entry(seq, value_of(seq, prim_.ring.value_bytes));
  }
  const auto id = operator_->drain_ring(/*collector_id=*/0);
  ASSERT_NE(id, 0u);
  sim_.run();
  const auto resp = operator_->take_primitive_response(id);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->op, PrimitiveOp::kDrainRing);
  EXPECT_FALSE(resp->unavailable());
  ASSERT_EQ(resp->entries.size(), 5u);
  EXPECT_EQ(resp->missed, 0u);
  EXPECT_EQ(resp->next_seq, 6u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(resp->entries[i].seq, i + 1);
    EXPECT_EQ(resp->entries[i].value,
              value_of(i + 1, prim_.ring.value_bytes));
  }
  EXPECT_EQ(service_->primitives_served(), 1u);
  EXPECT_EQ(service_->primitives_unavailable(), 0u);

  // The wire drain advanced the collector-side cursor: a second drain is
  // empty, not a replay.
  const auto id2 = operator_->drain_ring(0);
  sim_.run();
  EXPECT_TRUE(operator_->take_primitive_response(id2)->entries.empty());
}

TEST_F(PrimitiveQueryFixture, DrainRingHonorsMaxEntries) {
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    collector_->ring().write_entry(seq, value_of(seq, prim_.ring.value_bytes));
  }
  const auto id = operator_->drain_ring(0, /*max_entries=*/2);
  sim_.run();
  const auto resp = operator_->take_primitive_response(id);
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->entries.size(), 2u);
  EXPECT_EQ(resp->next_seq, 3u);
}

TEST_F(PrimitiveQueryFixture, ReadCounterOverTheWire) {
  const auto key = sim_key(21);
  (void)collector_->counters().fetch_add(key, 400);
  (void)collector_->counters().fetch_add(key, 20);
  const auto id = operator_->read_counter(key);
  ASSERT_NE(id, 0u);
  sim_.run();
  const auto resp = operator_->take_primitive_response(id);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->op, PrimitiveOp::kReadCounter);
  EXPECT_EQ(resp->cell_index, prim_.counters.index_of(key));
  EXPECT_EQ(resp->counter_value, 420u);
}

TEST_F(PrimitiveQueryFixture, ReadPostcardGroupOverTheWire) {
  const auto flow = sim_key(3);
  collector_->postcards().write_hop(flow, 1,
                                    value_of(31, prim_.postcards.value_bytes));
  collector_->postcards().write_hop(flow, 2,
                                    value_of(32, prim_.postcards.value_bytes));
  const auto id = operator_->read_postcard_group(flow);
  sim_.run();
  const auto resp = operator_->take_primitive_response(id);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->op, PrimitiveOp::kReadPostcardGroup);
  EXPECT_EQ(resp->group_index, prim_.postcards.group_of(flow));
  EXPECT_EQ(resp->valid_mask, 0b110u);
  ASSERT_EQ(resp->hops.size(), prim_.postcards.max_hops);
  EXPECT_EQ(resp->hops[1], value_of(31, prim_.postcards.value_bytes));
  EXPECT_EQ(resp->hops[2], value_of(32, prim_.postcards.value_bytes));
}

TEST_F(PrimitiveQueryFixture, PendingAndCountersFollowPrimitiveTraffic) {
  const auto id = operator_->read_counter(sim_key(1));
  EXPECT_EQ(operator_->pending(), 1u);
  sim_.run();
  EXPECT_EQ(operator_->pending(), 0u);
  EXPECT_EQ(operator_->queries_sent(), 1u);
  EXPECT_EQ(operator_->responses_received(), 1u);
  EXPECT_TRUE(operator_->take_primitive_response(id).has_value());
  // One-shot: a second take returns nothing.
  EXPECT_FALSE(operator_->take_primitive_response(id).has_value());
}

TEST(PrimitiveQueryUnavailable, CollectorWithoutPrimitivesSaysSo) {
  DartConfig cfg;
  cfg.n_slots = 64;
  cfg.n_addresses = 2;
  cfg.value_bytes = 8;
  cfg.master_seed = 0x0E;
  CollectorEndpoint ep;
  ep.mac = {0x02, 0, 0, 0, 0, 9};
  ep.ip = net::Ipv4Addr::from_octets(10, 0, 100, 9);
  Collector collector(cfg, 0, ep);  // primitives NOT enabled
  ReportCrafter crafter(cfg);

  net::Simulator sim{1};
  std::vector<std::pair<net::Ipv4Addr, net::NodeId>> arp;
  auto resolver = [&arp](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
    for (const auto& [addr, node] : arp) {
      if (addr == ip) return node;
    }
    return std::nullopt;
  };
  const auto service_ip = net::Ipv4Addr::from_octets(10, 0, 100, 100);
  QueryServiceNode service(collector, service_ip, resolver);
  const auto operator_ip = net::Ipv4Addr::from_octets(10, 9, 0, 1);
  OperatorClient op(crafter, operator_ip,
                    std::vector<net::Ipv4Addr>{service_ip}, resolver);
  const auto op_node = sim.add_node(op);
  const auto svc_node = sim.add_node(service);
  arp.emplace_back(operator_ip, op_node);
  arp.emplace_back(service_ip, svc_node);
  sim.connect(op_node, svc_node, 2000);

  const auto id = op.drain_ring(0);
  sim.run();
  const auto resp = op.take_primitive_response(id);
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->unavailable());
  EXPECT_TRUE(resp->entries.empty());
  EXPECT_EQ(service.primitives_unavailable(), 1u);
}

}  // namespace
}  // namespace dart::core
