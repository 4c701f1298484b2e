// Tests for the DART switch egress pipeline (§6): report crafting, PSN
// registers, collector lookup, and agreement with the field-by-field
// reference serializers.
#include "switchsim/dart_switch.hpp"

#include <gtest/gtest.h>

#include <string>

#include "check/reference_crafter.hpp"
#include "check/reference_roce.hpp"
#include "core/collector.hpp"
#include "rdma/roce.hpp"

namespace dart::switchsim {
namespace {

core::DartConfig small_config() {
  core::DartConfig cfg;
  cfg.n_slots = 1024;
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 20;
  cfg.master_seed = 0xDA27;
  return cfg;
}

DartSwitchPipeline::Config switch_config(core::WriteMode mode) {
  DartSwitchPipeline::Config sc;
  sc.dart = small_config();
  sc.mac = {0x02, 0, 0, 0, 0, 1};
  sc.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  sc.rng_seed = 7;
  sc.write_mode = mode;
  return sc;
}

core::RemoteStoreInfo fake_collector(std::uint32_t id) {
  core::RemoteStoreInfo info;
  info.collector_id = id;
  info.mac = {0x02, 0xC0, 0, 0, 0, static_cast<std::uint8_t>(id)};
  info.ip = net::Ipv4Addr::from_octets(10, 0, 100, static_cast<std::uint8_t>(id));
  info.qpn = 0x100 + id;
  info.rkey = 0xAB000000 + id;
  info.base_vaddr = 0x0000'1000'0000'0000ull;
  info.n_slots = small_config().n_slots;
  info.slot_bytes = small_config().slot_bytes();
  return info;
}

std::span<const std::byte> bytes_of(const std::string& s) {
  return std::as_bytes(std::span{s.data(), s.size()});
}

TEST(DartSwitch, NoCollectorsLoadedMisses) {
  DartSwitchPipeline sw(switch_config(core::WriteMode::kStochastic));
  const std::string key = "k";
  std::vector<std::byte> value(20, std::byte{1});
  const auto frames = sw.on_telemetry(bytes_of(key), value);
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(sw.counters().table_misses, 1u);
}

TEST(DartSwitch, StochasticEmitsOneFrame) {
  DartSwitchPipeline sw(switch_config(core::WriteMode::kStochastic));
  sw.load_collector(fake_collector(0));
  const std::string key = "flow-1";
  std::vector<std::byte> value(20, std::byte{2});
  const auto frames = sw.on_telemetry(bytes_of(key), value);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(sw.counters().reports_emitted, 1u);
}

TEST(DartSwitch, AllSlotsEmitsNFrames) {
  DartSwitchPipeline sw(switch_config(core::WriteMode::kAllSlots));
  sw.load_collector(fake_collector(0));
  const std::string key = "flow-1";
  std::vector<std::byte> value(20, std::byte{2});
  const auto frames = sw.on_telemetry(bytes_of(key), value);
  ASSERT_EQ(frames.size(), 2u);  // N = 2
  // The two frames target different slot addresses (w.h.p. for any key).
  const auto f0 = net::parse_udp_frame(frames[0]);
  const auto f1 = net::parse_udp_frame(frames[1]);
  ASSERT_TRUE(f0 && f1);
  const auto r0 = check::reference_parse_request(f0->payload);
  const auto r1 = check::reference_parse_request(f1->payload);
  ASSERT_TRUE(r0 && r1);
  EXPECT_NE(r0->reth->vaddr, r1->reth->vaddr);
}

TEST(DartSwitch, FramesAreValidRoce) {
  DartSwitchPipeline sw(switch_config(core::WriteMode::kAllSlots));
  sw.load_collector(fake_collector(3));
  const std::string key = "flow-2";
  std::vector<std::byte> value(20, std::byte{3});
  for (const auto& frame : sw.on_telemetry(bytes_of(key), value)) {
    EXPECT_TRUE(check::reference_verify_frame_icrc(frame));
    const auto parsed = net::parse_udp_frame(frame);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->udp.dst_port, net::kRoceV2UdpPort);
    EXPECT_EQ(parsed->ip.dst, fake_collector(3).ip);
    const auto req = check::reference_parse_request(parsed->payload);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->bth.opcode, rdma::Opcode::kRcRdmaWriteOnly);
    EXPECT_EQ(req->bth.dest_qp, fake_collector(3).qpn);
    EXPECT_EQ(req->reth->rkey, fake_collector(3).rkey);
    // Payload = checksum (4) + value (20).
    EXPECT_EQ(req->payload.size(), 24u);
  }
}

TEST(DartSwitch, PsnIncrementsPerCollector) {
  DartSwitchPipeline sw(switch_config(core::WriteMode::kStochastic));
  sw.load_collector(fake_collector(0));
  const std::string key = "flow-3";
  std::vector<std::byte> value(20, std::byte{4});
  EXPECT_EQ(sw.psn_of(0), 0u);
  (void)sw.on_telemetry(bytes_of(key), value);
  EXPECT_EQ(sw.psn_of(0), 1u);
  (void)sw.on_telemetry(bytes_of(key), value);
  (void)sw.on_telemetry(bytes_of(key), value);
  EXPECT_EQ(sw.psn_of(0), 3u);
}

TEST(DartSwitch, PsnsOnWireAreSequential) {
  DartSwitchPipeline sw(switch_config(core::WriteMode::kStochastic));
  sw.load_collector(fake_collector(0));
  const std::string key = "flow-4";
  std::vector<std::byte> value(20, std::byte{5});
  std::vector<std::uint32_t> psns;
  for (int i = 0; i < 5; ++i) {
    const auto frames = sw.on_telemetry(bytes_of(key), value);
    ASSERT_EQ(frames.size(), 1u);
    const auto parsed = net::parse_udp_frame(frames[0]);
    const auto req = check::reference_parse_request(parsed->payload);
    psns.push_back(req->bth.psn);
  }
  EXPECT_EQ(psns, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(DartSwitch, RoutesKeysToHashedCollector) {
  DartSwitchPipeline sw(switch_config(core::WriteMode::kStochastic));
  constexpr std::uint32_t kCollectors = 4;
  for (std::uint32_t c = 0; c < kCollectors; ++c) {
    sw.load_collector(fake_collector(c));
  }
  const HashFamily family(2, 0xDA27);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "flow-" + std::to_string(i);
    std::vector<std::byte> value(20, std::byte{6});
    const auto frames = sw.on_telemetry(bytes_of(key), value);
    ASSERT_EQ(frames.size(), 1u);
    const auto parsed = net::parse_udp_frame(frames[0]);
    const auto want =
        family.collector_of(bytes_of(key), kCollectors);
    EXPECT_EQ(parsed->ip.dst, fake_collector(want).ip);
  }
}

TEST(DartSwitch, MatchesHostSideCrafterBytes) {
  // The P4-modeled pipeline and the field-by-field reference serializer
  // must produce byte-identical frames for the same (key, value, n, psn).
  auto sc = switch_config(core::WriteMode::kAllSlots);
  DartSwitchPipeline sw(sc);
  sw.load_collector(fake_collector(0));

  const check::ReferenceCrafter crafter(sc.dart);
  core::ReporterEndpoint src;
  src.mac = sc.mac;
  src.ip = sc.ip;

  const std::string key = "flow-equal";
  std::vector<std::byte> value(20, std::byte{7});
  const auto frames = sw.on_telemetry(bytes_of(key), value);
  ASSERT_EQ(frames.size(), 2u);
  for (std::uint32_t n = 0; n < 2; ++n) {
    const auto expect =
        crafter.craft_write(fake_collector(0), src, bytes_of(key), value, n,
                            /*psn=*/n);
    EXPECT_EQ(frames[n], expect) << "copy " << n;
  }
}

// --- DTA translator primitives ----------------------------------------------

core::DtaPrimitivesConfig small_primitives() {
  auto prim = core::default_primitives(small_config().master_seed);
  prim.ring.n_entries = 16;
  prim.ring.value_bytes = 8;
  prim.postcards.n_groups = 8;
  prim.postcards.max_hops = 4;
  return prim;
}

DartSwitchPipeline::Config primitive_switch_config() {
  auto sc = switch_config(core::WriteMode::kStochastic);
  sc.primitives = small_primitives();
  return sc;
}

// The three region rows collector `id` would publish (Collector's vaddr
// scheme: disjoint fixed bases per region).
struct PrimitiveRowSet {
  core::RemoteStoreInfo ring;
  core::RemoteStoreInfo counters;
  core::RemoteStoreInfo postcards;
};

PrimitiveRowSet fake_primitive_rows(std::uint32_t id) {
  const auto prim = small_primitives();
  PrimitiveRowSet rows;
  rows.ring = fake_collector(id);
  rows.ring.base_vaddr = core::Collector::kRingBaseVaddr;
  rows.ring.n_slots = prim.ring.n_entries;
  rows.ring.slot_bytes = prim.ring.entry_bytes();
  rows.counters = fake_collector(id);
  rows.counters.base_vaddr = core::Collector::kCounterBaseVaddr;
  rows.counters.n_slots = prim.counters.n_counters;
  rows.counters.slot_bytes = 8;
  rows.postcards = fake_collector(id);
  rows.postcards.base_vaddr = core::Collector::kPostcardBaseVaddr;
  rows.postcards.n_slots = prim.postcards.n_slots();
  rows.postcards.slot_bytes = prim.postcards.slot_bytes();
  return rows;
}

TEST(DartSwitchPrimitives, NoRowsLoadedMissesAllThreeEntryPoints) {
  DartSwitchPipeline sw(primitive_switch_config());
  std::vector<std::byte> value(8, std::byte{1});
  EXPECT_TRUE(sw.on_append_event(bytes_of("k"), value).empty());
  EXPECT_TRUE(sw.on_increment_event(bytes_of("k"), 1).empty());
  EXPECT_TRUE(sw.on_postcard_event(bytes_of("k"), 0, value).empty());
  EXPECT_EQ(sw.counters().table_misses, 3u);
  EXPECT_EQ(sw.counters().reports_emitted, 0u);
  EXPECT_EQ(sw.append_tail_of(0), 0u);  // a miss must not consume a seq
}

TEST(DartSwitchPrimitives, AppendsMatchHostCrafterAndBumpTheTail) {
  const auto sc = primitive_switch_config();
  DartSwitchPipeline sw(sc);
  const auto rows = fake_primitive_rows(0);
  sw.load_primitives(rows.ring, rows.counters, rows.postcards);
  EXPECT_EQ(sw.primitive_collectors_loaded(), 1u);

  const check::ReferenceCrafter crafter(sc.dart);
  core::ReporterEndpoint src;
  src.mac = sc.mac;
  src.ip = sc.ip;

  for (std::uint64_t i = 0; i < 3; ++i) {
    std::vector<std::byte> value(sc.primitives.ring.value_bytes,
                                 std::byte{static_cast<unsigned char>(i)});
    const auto frame = sw.on_append_event(bytes_of("event"), value);
    ASSERT_FALSE(frame.empty());
    // The switch-maintained tail supplies seq i+1; PSNs continue the same
    // per-collector stream the KV path uses.
    const auto expect = crafter.craft_append(
        rows.ring, src, sc.primitives.ring, /*seq=*/i + 1, value,
        /*psn=*/static_cast<std::uint32_t>(i));
    EXPECT_EQ(frame, expect) << "append " << i;
  }
  EXPECT_EQ(sw.append_tail_of(0), 3u);
  EXPECT_EQ(sw.counters().appends_emitted, 3u);
  EXPECT_EQ(sw.counters().reports_emitted, 3u);
}

TEST(DartSwitchPrimitives, IncrementAndPostcardMatchHostCrafter) {
  const auto sc = primitive_switch_config();
  DartSwitchPipeline sw(sc);
  const auto rows = fake_primitive_rows(0);
  sw.load_primitives(rows.ring, rows.counters, rows.postcards);

  const check::ReferenceCrafter crafter(sc.dart);
  core::ReporterEndpoint src;
  src.mac = sc.mac;
  src.ip = sc.ip;

  const auto inc_frame = sw.on_increment_event(bytes_of("flow-i"), 42);
  ASSERT_FALSE(inc_frame.empty());
  EXPECT_EQ(inc_frame,
            crafter.craft_key_increment(rows.counters, src,
                                        sc.primitives.counters,
                                        bytes_of("flow-i"), 42, /*psn=*/0));

  std::vector<std::byte> value(sc.primitives.postcards.value_bytes,
                               std::byte{9});
  const auto pc_frame = sw.on_postcard_event(bytes_of("flow-p"), 2, value);
  ASSERT_FALSE(pc_frame.empty());
  EXPECT_EQ(pc_frame,
            crafter.craft_postcard(rows.postcards, src,
                                   sc.primitives.postcards, bytes_of("flow-p"),
                                   2, value, /*psn=*/1));
  EXPECT_EQ(sw.counters().increments_emitted, 1u);
  EXPECT_EQ(sw.counters().postcards_emitted, 1u);
  EXPECT_EQ(sw.append_tail_of(0), 0u);  // only appends consume the tail
}

TEST(DartSwitchPrimitives, PrimitivesShareThePsnStreamWithKvReports) {
  auto sc = primitive_switch_config();
  DartSwitchPipeline sw(sc);
  sw.load_collector(fake_collector(0));
  const auto rows = fake_primitive_rows(0);
  sw.load_primitives(rows.ring, rows.counters, rows.postcards);

  std::vector<std::byte> kv_value(sc.dart.value_bytes, std::byte{1});
  std::vector<std::byte> ring_value(sc.primitives.ring.value_bytes,
                                    std::byte{2});
  const auto kv = sw.on_telemetry(bytes_of("k"), kv_value);
  ASSERT_EQ(kv.size(), 1u);
  const auto append = sw.on_append_event(bytes_of("k"), ring_value);
  const auto inc = sw.on_increment_event(bytes_of("k"), 5);

  // One register, one stream: KV report psn 0, then append 1, increment 2.
  std::uint32_t want_psn = 0;
  for (const auto* frame : {&kv[0], &append, &inc}) {
    const auto parsed = net::parse_udp_frame(*frame);
    ASSERT_TRUE(parsed.has_value());
    const auto req = check::reference_parse_request(parsed->payload);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->bth.psn, want_psn++);
  }
  EXPECT_EQ(sw.psn_of(0), 3u);
}

TEST(DartSwitchPrimitives, UnloadDropsPrimitiveRows) {
  DartSwitchPipeline sw(primitive_switch_config());
  const auto rows = fake_primitive_rows(0);
  sw.load_primitives(rows.ring, rows.counters, rows.postcards);
  EXPECT_EQ(sw.primitive_collectors_loaded(), 1u);
  sw.unload_collector(0);
  EXPECT_EQ(sw.primitive_collectors_loaded(), 0u);
  std::vector<std::byte> value(8, std::byte{1});
  EXPECT_TRUE(sw.on_append_event(bytes_of("k"), value).empty());
  EXPECT_EQ(sw.counters().table_misses, 1u);
}

TEST(DartSwitch, BatchedIngressMatchesPerEventIngress) {
  // on_telemetry_batch precomputes collector ids with the batched XXH64
  // kernel (8-byte keys) and falls back per event otherwise; the frame
  // stream, PSN sequence, and counters must be identical to calling
  // on_telemetry per event on a twin pipeline with the same RNG seed.
  DartSwitchPipeline per_event(switch_config(core::WriteMode::kStochastic));
  DartSwitchPipeline batched(switch_config(core::WriteMode::kStochastic));
  for (std::uint32_t id = 0; id < 3; ++id) {
    per_event.load_collector(fake_collector(id));
    batched.load_collector(fake_collector(id));
  }

  constexpr std::size_t kEvents = 100;  // crosses the 64-lane chunk
  std::vector<std::vector<std::byte>> keys(kEvents);
  std::vector<std::vector<std::byte>> values(kEvents);
  std::vector<DartSwitchPipeline::TelemetryEvent> events(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    if (i % 7 == 3) {  // a few odd-width keys force the scalar fallback
      keys[i].assign(1 + i % 5, static_cast<std::byte>(i));
    } else {
      keys[i].resize(8);
      for (std::size_t b = 0; b < 8; ++b) {
        keys[i][b] = static_cast<std::byte>(i * 31 + b);
      }
    }
    values[i].assign(20, static_cast<std::byte>(i * 3));
    events[i] = {keys[i], values[i]};
  }

  std::vector<std::vector<std::byte>> want;
  for (std::size_t i = 0; i < kEvents; ++i) {
    auto frames = per_event.on_telemetry(keys[i], values[i]);
    for (auto& f : frames) want.push_back(std::move(f));
  }
  const auto got = batched.on_telemetry_batch(events);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "frame " << i;
  }
  EXPECT_EQ(batched.counters().telemetry_events,
            per_event.counters().telemetry_events);
  EXPECT_EQ(batched.counters().reports_emitted,
            per_event.counters().reports_emitted);
}

TEST(DartSwitch, SramBudgetSupportsManyCollectors) {
  // §6: "about 20 bytes of on-switch SRAM per-collector ... tens of
  // thousands of collectors". Our logical accounting must stay in that
  // regime: 50K collectors under 2 MB.
  const std::size_t per = DartSwitchPipeline::sram_bytes_per_collector();
  EXPECT_LE(per, 32u);
  EXPECT_LE(per * 50000, 2u << 20);
}

}  // namespace
}  // namespace dart::switchsim
