// Backend-conformance suite for the StoreBackend seam: both backends must
// agree on (a) MR byte layout, (b) slot/cell addressing — pinned
// byte-for-byte against switch-side frame crafting through the simulated
// RNIC, (c) local apply vs wire-path equivalence, and (d) clear/reset.
#include "core/store_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "check/reference_crafter.hpp"
#include "core/collector.hpp"
#include "core/oracle.hpp"
#include "core/report_crafter.hpp"
#include "switchsim/dart_switch.hpp"

namespace dart::core {
namespace {

DartConfig kv_config() {
  DartConfig cfg;
  cfg.n_slots = 1024;
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 8;
  cfg.master_seed = 0xDA27;
  return cfg;
}

SketchBackendConfig sketch_config() {
  SketchBackendConfig cfg;
  cfg.rows = 3;
  cfg.cols = 256;
  cfg.seed = 0x5EED'CAFE;
  cfg.topk_capacity = 4;
  return cfg;
}

StoreBackendConfig sketch_choice() {
  StoreBackendConfig choice;
  choice.kind = StoreBackendKind::kSketch;
  choice.sketch = sketch_config();
  return choice;
}

CollectorEndpoint endpoint() {
  CollectorEndpoint ep;
  ep.mac = {0x02, 0xC0, 0, 0, 0, 1};
  ep.ip = net::Ipv4Addr::from_octets(10, 0, 100, 1);
  return ep;
}

ReporterEndpoint reporter() {
  ReporterEndpoint src;
  src.mac = {0x02, 0, 0, 0, 0, 1};
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  return src;
}

std::vector<std::byte> value_of(std::uint64_t v) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

// --- factory / geometry ------------------------------------------------------

TEST(StoreBackendConformance, KvFactoryGeometryMatchesDartConfig) {
  const DartConfig dart = kv_config();
  const StoreBackendConfig choice;  // default = KV
  ASSERT_TRUE(choice.valid(dart));
  EXPECT_EQ(choice.memory_bytes(dart), dart.memory_bytes());

  auto backend = make_backend(dart, choice);
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->kind(), StoreBackendKind::kKv);
  EXPECT_EQ(backend->n_slots(), dart.n_slots);
  EXPECT_EQ(backend->slot_bytes(), dart.slot_bytes());
  EXPECT_EQ(backend->memory_bytes(), dart.memory_bytes());
  EXPECT_EQ(backend->memory().size(), dart.memory_bytes());
}

TEST(StoreBackendConformance, SketchFactoryGeometry) {
  const DartConfig dart = kv_config();
  const StoreBackendConfig choice = sketch_choice();
  ASSERT_TRUE(choice.valid(dart));
  EXPECT_EQ(choice.memory_bytes(dart), choice.sketch.memory_bytes());

  auto backend = make_backend(dart, choice);
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->kind(), StoreBackendKind::kSketch);
  EXPECT_EQ(backend->n_slots(), choice.sketch.n_cells());
  EXPECT_EQ(backend->slot_bytes(), 8u);
  EXPECT_EQ(backend->memory_bytes(), choice.sketch.memory_bytes());
  EXPECT_EQ(backend->memory().size(), choice.sketch.memory_bytes());
}

TEST(StoreBackendConformance, CollectorRemoteInfoCarriesBackendGeometry) {
  Collector kv(kv_config(), 0, endpoint());
  EXPECT_EQ(kv.backend_kind(), StoreBackendKind::kKv);
  EXPECT_EQ(kv.remote_info().backend, StoreBackendKind::kKv);
  EXPECT_EQ(kv.remote_info().n_slots, kv_config().n_slots);
  EXPECT_EQ(kv.remote_info().slot_bytes, kv_config().slot_bytes());

  Collector sk(kv_config(), 1, endpoint(), sketch_choice());
  EXPECT_EQ(sk.backend_kind(), StoreBackendKind::kSketch);
  EXPECT_EQ(sk.remote_info().backend, StoreBackendKind::kSketch);
  EXPECT_EQ(sk.remote_info().n_slots, sketch_config().n_cells());
  EXPECT_EQ(sk.remote_info().slot_bytes, 8u);
}

// --- cell addressing ---------------------------------------------------------

// The backend's addressing (what the switch crafts with) is the reference
// count-min derivation: the SplitMix64 row-seed walk, the xxhash64 column
// hash and the row-major flattening. This is what lets a local reference
// tally stand in for the wire path cell-for-cell.
TEST(StoreBackendConformance, SketchAddressingMatchesReference) {
  const SketchBackendConfig cfg = sketch_config();
  SketchBackend backend(cfg);
  ASSERT_EQ(backend.geometry().rows(), cfg.rows);
  ASSERT_EQ(backend.geometry().cols(), cfg.cols);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto key = sim_key(i);
    for (std::uint32_t r = 0; r < cfg.rows; ++r) {
      EXPECT_EQ(backend.geometry().cell_of(key, r),
                check::reference_sketch_cell(key, cfg.seed, r, cfg.cols))
          << "key " << i << " row " << r;
    }
  }
}

// --- wire path vs local apply ------------------------------------------------

TEST(StoreBackendConformance, KvWirePathMatchesLocalApply) {
  const DartConfig dart = kv_config();
  Collector collector(dart, 0, endpoint());
  auto twin = make_backend(dart, StoreBackendConfig{});
  const ReportCrafter crafter(dart);
  const auto tpl = crafter.make_write_template(collector.remote_info(),
                                               reporter());
  std::vector<std::byte> frame(tpl.frame_size());

  std::uint32_t psn = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto key = sim_key(i);
    const auto value = value_of(i * 31 + 7);
    // apply_report's reference semantics = all N slot copies written.
    for (std::uint32_t n = 0; n < dart.n_addresses; ++n) {
      ASSERT_EQ(crafter.craft_write_into(tpl, key, value, n, psn++, frame),
                frame.size());
      ASSERT_TRUE(collector.rnic().process_frame(frame).has_value()) << i;
    }
    twin->apply_report(key, value);
  }
  const auto wire = collector.backend().memory();
  const auto local = twin->memory();
  ASSERT_EQ(wire.size(), local.size());
  EXPECT_TRUE(std::equal(wire.begin(), wire.end(), local.begin()));
}

TEST(StoreBackendConformance, SketchWirePathMatchesLocalApply) {
  const DartConfig dart = kv_config();
  const SketchBackendConfig cfg = sketch_config();
  Collector collector(dart, 0, endpoint(), sketch_choice());
  SketchBackend twin(cfg);
  const ReportCrafter crafter(dart);
  const auto tpl = crafter.make_atomic_template(
      collector.remote_info(), reporter(), rdma::Opcode::kRcFetchAdd);
  std::vector<std::byte> frame(tpl.frame_size());

  std::uint32_t psn = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const auto key = sim_key(i % 40);
    // One report = one FETCH_ADD of 1 per row.
    for (std::uint32_t r = 0; r < cfg.rows; ++r) {
      ASSERT_EQ(crafter.craft_sketch_increment_into(tpl, twin.geometry(), key,
                                                    r, 1, psn++, frame),
                frame.size());
      ASSERT_TRUE(collector.rnic().process_frame(frame).has_value()) << i;
    }
    twin.apply_report(key, {});
  }
  const auto wire = collector.backend().memory();
  const auto local = twin.memory();
  ASSERT_EQ(wire.size(), local.size());
  EXPECT_TRUE(std::equal(wire.begin(), wire.end(), local.begin()));
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(collector.sketch().estimate(sim_key(i)), twin.estimate(sim_key(i)));
  }
}

// The switch pipeline's sketch fan-out (template fast path included) must
// land the same bytes as the crafter reference above.
TEST(StoreBackendConformance, SwitchPipelineSketchFanoutMatchesLocalApply) {
  const DartConfig dart = kv_config();
  const SketchBackendConfig cfg = sketch_config();
  Collector collector(dart, 0, endpoint(), sketch_choice());
  SketchBackend twin(cfg);

  switchsim::DartSwitchPipeline::Config sc;
  sc.dart = dart;
  sc.mac = reporter().mac;
  sc.ip = reporter().ip;
  sc.sketch = cfg;
  switchsim::DartSwitchPipeline sw(sc);
  sw.load_collector(collector.remote_info());

  for (std::uint64_t i = 0; i < 150; ++i) {
    const auto key = sim_key(i % 25);
    const auto value = value_of(i);
    const auto frames = sw.on_telemetry(key, value);
    ASSERT_EQ(frames.size(), cfg.rows) << i;  // one FETCH_ADD per row
    for (const auto& frame : frames) {
      ASSERT_TRUE(collector.rnic().process_frame(frame).has_value()) << i;
    }
    twin.apply_report(key, value);
  }
  EXPECT_EQ(sw.counters().sketch_increments_emitted, 150u * cfg.rows);
  EXPECT_EQ(sw.counters().reports_emitted, 150u * cfg.rows);

  const auto wire = collector.backend().memory();
  const auto local = twin.memory();
  ASSERT_EQ(wire.size(), local.size());
  EXPECT_TRUE(std::equal(wire.begin(), wire.end(), local.begin()));
}

// --- resolve semantics -------------------------------------------------------

TEST(StoreBackendConformance, KvResolveMatchesQueryEngine) {
  const DartConfig dart = kv_config();
  auto backend = make_backend(dart, StoreBackendConfig{});
  backend->apply_report(sim_key(1), value_of(42));

  const auto hit = backend->resolve(sim_key(1), ReturnPolicy::kPlurality);
  ASSERT_EQ(hit.outcome, QueryOutcome::kFound);
  EXPECT_EQ(hit.value, value_of(42));

  const auto miss = backend->resolve(sim_key(2), ReturnPolicy::kPlurality);
  EXPECT_NE(miss.outcome, QueryOutcome::kFound);
}

TEST(StoreBackendConformance, SketchResolveEncodesEstimate) {
  SketchBackend backend(sketch_config());
  const auto empty = backend.resolve(sim_key(9), ReturnPolicy::kPlurality);
  EXPECT_EQ(empty.outcome, QueryOutcome::kEmpty);

  backend.add(sim_key(9), 5);
  const auto found = backend.resolve(sim_key(9), ReturnPolicy::kPlurality);
  ASSERT_EQ(found.outcome, QueryOutcome::kFound);
  ASSERT_EQ(found.value.size(), 8u);
  std::uint64_t est = 0;
  std::memcpy(&est, found.value.data(), 8);
  EXPECT_EQ(est, backend.estimate(sim_key(9)));
  EXPECT_GE(est, 5u);  // count-min never undercounts
}

// --- clear / reset -----------------------------------------------------------

TEST(StoreBackendConformance, ClearZeroesMemoryAndResetsState) {
  const DartConfig dart = kv_config();
  auto kv = make_backend(dart, StoreBackendConfig{});
  kv->apply_report(sim_key(1), value_of(1));
  kv->clear();
  for (const std::byte b : kv->memory()) {
    ASSERT_EQ(b, std::byte{0});
  }

  SketchBackend sk(sketch_config());
  sk.apply_report(sim_key(1), {});
  sk.offer(sim_key(1));
  ASSERT_EQ(sk.tracked_candidates(), 1u);
  sk.clear();
  for (const std::byte b : sk.memory()) {
    ASSERT_EQ(b, std::byte{0});
  }
  EXPECT_EQ(sk.tracked_candidates(), 0u);
  EXPECT_EQ(sk.estimate(sim_key(1)), 0u);
}

// --- heavy-hitter tracker ----------------------------------------------------

TEST(SketchBackendTracker, TopKOrdersByLiveEstimate) {
  SketchBackendConfig cfg = sketch_config();
  cfg.topk_capacity = 8;
  SketchBackend backend(cfg);
  for (std::uint64_t i = 0; i < 5; ++i) {
    backend.add(sim_key(i), (i + 1) * 10);
    backend.offer(sim_key(i));
  }
  // Counts are re-estimated at top_k() time, so later adds are reflected.
  backend.add(sim_key(0), 1000);

  const auto top = backend.top_k(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_TRUE(std::equal(top[0].key.begin(), top[0].key.end(),
                         sim_key(0).begin()));
  EXPECT_GE(top[0].count, 1000u);
  EXPECT_GE(top[0].count, top[1].count);
  EXPECT_GE(top[1].count, top[2].count);
}

TEST(SketchBackendTracker, CapacityEvictionPrefersStrongerCandidates) {
  SketchBackendConfig cfg = sketch_config();
  cfg.topk_capacity = 2;
  SketchBackend backend(cfg);
  backend.add(sim_key(1), 10);
  backend.add(sim_key(2), 20);
  backend.add(sim_key(3), 5);
  backend.add(sim_key(4), 30);

  backend.offer(sim_key(1));
  backend.offer(sim_key(2));
  ASSERT_EQ(backend.tracked_candidates(), 2u);

  // Weaker newcomer at capacity: rejected, set unchanged.
  backend.offer(sim_key(3));
  EXPECT_EQ(backend.tracked_candidates(), 2u);
  EXPECT_EQ(backend.offers_rejected(), 1u);
  EXPECT_EQ(backend.offers_evicted(), 0u);

  // Stronger newcomer: evicts the weakest (key 1).
  backend.offer(sim_key(4));
  EXPECT_EQ(backend.tracked_candidates(), 2u);
  EXPECT_EQ(backend.offers_evicted(), 1u);
  const auto top = backend.top_k(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_TRUE(std::equal(top[0].key.begin(), top[0].key.end(),
                         sim_key(4).begin()));
  EXPECT_TRUE(std::equal(top[1].key.begin(), top[1].key.end(),
                         sim_key(2).begin()));

  // Re-offering a tracked key is a dedupe, not an eviction.
  backend.offer(sim_key(4));
  EXPECT_EQ(backend.tracked_candidates(), 2u);
  EXPECT_EQ(backend.offers_evicted(), 1u);
}

}  // namespace
}  // namespace dart::core
