// Storage-backend properties.
//
// 1. sketch_wire_query_diff — random op streams through the REAL wire path
//    (crafted FETCH_ADD frames, template fast path and allocating path
//    mixed, with random per-frame loss) into a sketch-backed collector's
//    RNIC, diffed cell-for-cell against a reference tally built from the
//    reference addressing (reference_sketch_cell); then the query protocol's
//    sketch ops
//    (estimate + top-k) are exercised end-to-end over netsim and checked
//    against the same reference, including tie-robust top-k inclusion.
//
// 2. torn_read_rotation — the read-discipline property from store.hpp: a
//    writer thread bursts crafted KV reports at the ACTIVE region of a
//    RotatingCollector while the controller thread flips epochs; standby
//    reads that honor the grace discipline (wait for the in-flight burst to
//    finish before decoding the old region) must never observe a torn
//    [checksum ‖ value] pair — every found value is some key's one true
//    value.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "check/property.hpp"
#include "check/reference_crafter.hpp"
#include "check/rng.hpp"
#include "core/collector.hpp"
#include "core/epoch_rotation.hpp"
#include "core/oracle.hpp"
#include "core/query_protocol.hpp"
#include "core/query_service.hpp"
#include "core/report_crafter.hpp"
#include "core/store_backend.hpp"
#include "net/headers.hpp"
#include "net/netsim.hpp"

namespace dart::check {
namespace {

core::CollectorEndpoint endpoint() {
  core::CollectorEndpoint ep;
  ep.mac = {0x02, 0xC0, 0, 0, 0, 1};
  ep.ip = net::Ipv4Addr::from_octets(10, 0, 100, 1);
  return ep;
}

core::ReporterEndpoint reporter() {
  core::ReporterEndpoint src;
  src.mac = {0x02, 0, 0, 0, 0, 1};
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  return src;
}

std::vector<std::byte> key_of(std::uint64_t id) {
  const auto k = core::sim_key(id);
  return {k.begin(), k.end()};
}

std::optional<Failure> sketch_wire_query_diff(Rng& rng) {
  constexpr std::uint64_t kUniverse = 12;

  core::DartConfig dart;
  dart.n_slots = 256;
  dart.n_addresses = 2;
  dart.value_bytes = 8;
  dart.master_seed = 0xD1F0 + rng.below(8);

  core::StoreBackendConfig choice;
  choice.kind = core::StoreBackendKind::kSketch;
  choice.sketch.rows = 1 + static_cast<std::uint32_t>(rng.below(3));
  choice.sketch.cols = 4 + rng.below(29);  // heavy collisions on purpose
  choice.sketch.seed = rng.u64();
  choice.sketch.topk_capacity = kUniverse;  // every queried key is tracked
  const core::SketchBackendConfig& cfg = choice.sketch;

  core::Collector collector(dart, 0, endpoint(), choice);
  const core::ReportCrafter crafter(dart);
  const ReferenceCrafter reference(dart);
  const auto info = collector.remote_info();
  const auto tpl =
      crafter.make_atomic_template(info, reporter(), rdma::Opcode::kRcFetchAdd);

  // Reference tally: one u64 per cell, updated at the reference cell for
  // exactly the frames that were DELIVERED. Memory layout is identical to
  // the MR (host-endian u64 cells, row-major), so the diff at the end is a
  // byte compare.
  std::vector<std::uint64_t> ref_cells(cfg.n_cells(), 0);
  const auto ref_cell = [&](std::span<const std::byte> key, std::uint32_t r) {
    return reference_sketch_cell(key, cfg.seed, r, cfg.cols);
  };

  const auto n_ops = 1 + rng.below(40);
  std::uint32_t psn = 0;
  for (std::uint64_t i = 0; i < n_ops; ++i) {
    const auto key = key_of(rng.below(kUniverse));
    const std::uint64_t delta = 1 + rng.below(8);
    for (std::uint32_t row = 0; row < cfg.rows; ++row) {
      const std::uint32_t this_psn = psn++;
      if (rng.chance(0.1)) continue;  // frame lost: neither side sees it
      std::vector<std::byte> frame;
      if (rng.chance(0.5)) {
        frame.resize(tpl.frame_size());
        const auto len = crafter.craft_sketch_increment_into(
            tpl, collector.sketch().geometry(), key, row, delta, this_psn,
            frame);
        if (len != frame.size()) {
          return Failure{"template crafting returned short frame", {}};
        }
      } else {
        frame = reference.craft_sketch_increment(info, reporter(), cfg, key,
                                                 row, delta, this_psn);
      }
      if (!collector.rnic().process_frame(frame).has_value()) {
        return Failure{"RNIC rejected a crafted sketch FETCH_ADD", frame};
      }
      ref_cells[ref_cell(key, row)] += delta;
    }
  }

  // --- cell-for-cell diff: MR bytes vs reference tally ---------------------
  const auto mr = collector.backend().memory();
  if (mr.size() != ref_cells.size() * 8) {
    return Failure{"MR size diverged from sketch geometry", {}};
  }
  if (std::memcmp(mr.data(), ref_cells.data(), mr.size()) != 0) {
    return Failure{"sketch MR diverged from reference cells after wire ops",
                   {}};
  }

  const auto ref_estimate = [&](std::uint64_t id) {
    std::uint64_t best = UINT64_MAX;
    const auto key = key_of(id);
    for (std::uint32_t r = 0; r < cfg.rows; ++r) {
      best = std::min(best, ref_cells[ref_cell(key, r)]);
    }
    return best == UINT64_MAX ? 0 : best;
  };

  // --- query protocol v2 sketch ops, end-to-end over netsim ----------------
  net::Simulator sim{1};
  std::vector<std::pair<net::Ipv4Addr, net::NodeId>> arp;
  auto resolver = [&arp](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
    for (const auto& [addr, node] : arp) {
      if (addr == ip) return node;
    }
    return std::nullopt;
  };
  const auto service_ip = net::Ipv4Addr::from_octets(10, 0, 100, 1);
  core::QueryServiceNode service(collector, service_ip, resolver);
  const auto operator_ip = net::Ipv4Addr::from_octets(10, 9, 0, 1);
  core::ReportCrafter op_crafter(dart);
  core::OperatorClient op(op_crafter, operator_ip, {service_ip}, resolver);

  const auto op_node = sim.add_node(op);
  const auto svc_node = sim.add_node(service);
  arp.emplace_back(operator_ip, op_node);
  arp.emplace_back(service_ip, svc_node);
  sim.connect(op_node, svc_node, /*latency_ns=*/500 + rng.below(3000));

  const auto epoch = static_cast<std::uint32_t>(rng.u64());
  op.set_epoch(epoch);

  // Estimate every universe key over the wire; these queries also feed the
  // collector's heavy-hitter tracker (the read-side candidate stream).
  std::vector<std::uint64_t> ids(kUniverse);
  for (std::uint64_t k = 0; k < kUniverse; ++k) {
    ids[k] = op.sketch_estimate(key_of(k));
    if (ids[k] == 0) return Failure{"sketch_estimate failed to send", {}};
  }
  sim.run();
  for (std::uint64_t k = 0; k < kUniverse; ++k) {
    const auto resp = op.take_sketch_response(ids[k]);
    if (!resp.has_value()) {
      return Failure{"estimate response lost for key " + std::to_string(k), {}};
    }
    if (resp->op != core::SketchOp::kEstimate || resp->epoch != epoch) {
      return Failure{"estimate response header mismatch", {}};
    }
    if (resp->unavailable() || resp->degraded()) {
      return Failure{"healthy sketch collector flagged its answer", {}};
    }
    if (resp->estimate != ref_estimate(k)) {
      return Failure{"wire estimate " + std::to_string(resp->estimate) +
                         " != reference " + std::to_string(ref_estimate(k)) +
                         " for key " + std::to_string(k),
                     {}};
    }
  }

  // Top-k against the tracker (every universe key was offered above).
  const auto k_req = static_cast<std::uint16_t>(1 + rng.below(kUniverse + 4));
  const auto topk_id = op.sketch_topk(0, k_req);
  if (topk_id == 0) return Failure{"sketch_topk failed to send", {}};
  sim.run();
  const auto topk = op.take_sketch_response(topk_id);
  if (!topk.has_value()) return Failure{"top-k response lost", {}};
  if (topk->op != core::SketchOp::kTopK || topk->epoch != epoch) {
    return Failure{"top-k response header mismatch", {}};
  }
  const std::size_t expect_n = std::min<std::size_t>(k_req, kUniverse);
  if (topk->hitters.size() != expect_n) {
    return Failure{"top-k returned " + std::to_string(topk->hitters.size()) +
                       " entries, expected " + std::to_string(expect_n),
                   {}};
  }
  std::vector<bool> returned(kUniverse, false);
  std::uint64_t min_returned = UINT64_MAX;
  for (std::size_t i = 0; i < topk->hitters.size(); ++i) {
    const auto& hh = topk->hitters[i];
    if (i > 0 && hh.count > topk->hitters[i - 1].count) {
      return Failure{"top-k not sorted descending", {}};
    }
    // Identify which universe key this is and check the count is its live
    // reference estimate.
    bool matched = false;
    for (std::uint64_t k = 0; k < kUniverse && !matched; ++k) {
      if (hh.key == key_of(k)) {
        matched = true;
        returned[k] = true;
        if (hh.count != ref_estimate(k)) {
          return Failure{"top-k count diverged from reference estimate", {}};
        }
      }
    }
    if (!matched) return Failure{"top-k returned a key never offered", {}};
    min_returned = std::min(min_returned, hh.count);
  }
  // Tie-robust inclusion: nothing excluded may beat anything returned.
  for (std::uint64_t k = 0; k < kUniverse; ++k) {
    if (!returned[k] && ref_estimate(k) > min_returned) {
      return Failure{"excluded key " + std::to_string(k) +
                         " outranks a returned hitter",
                     {}};
    }
  }
  return std::nullopt;
}

// Disciplined standby reads during live rotation never see torn pairs.
std::optional<Failure> torn_read_rotation(Rng& rng) {
  constexpr std::uint64_t kUniverse = 8;

  core::DartConfig dart;
  dart.n_slots = 128;  // collisions likely: torn pairs would be observable
  dart.n_addresses = 2;
  dart.value_bytes = 8;
  dart.master_seed = 0x707A + rng.below(16);
  core::RotatingCollector collector(dart, 0, endpoint());
  const core::ReportCrafter crafter(dart);

  // One true value per key, recognizable on sight.
  const auto value_of = [](std::uint64_t id) {
    std::vector<std::byte> v(8);
    const std::uint64_t word = id * 0x9E37'79B9'7F4A'7C15ull + 1;
    std::memcpy(v.data(), &word, 8);
    return v;
  };

  std::atomic<std::uint64_t> bursts_done{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint32_t psn = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // Fresh row per burst: after a flip the next burst lands on the new
      // active region, and `bursts_done` publishing (release) lets the
      // auditor prove the old region went quiescent.
      const auto tpl =
          crafter.make_write_template(collector.active_info(), reporter());
      std::vector<std::byte> frame(tpl.frame_size());
      for (std::uint64_t j = 0; j < kUniverse; ++j) {
        for (std::uint32_t n = 0; n < dart.n_addresses; ++n) {
          crafter.craft_write_into(tpl, core::sim_key(j), value_of(j), n,
                                   psn++, frame);
          if (!collector.rnic().process_frame(frame).has_value()) {
            stop.store(true, std::memory_order_release);
            return;
          }
        }
      }
      bursts_done.fetch_add(1, std::memory_order_release);
    }
  });

  const auto wait_for_bursts = [&](std::uint64_t target) {
    while (bursts_done.load(std::memory_order_acquire) < target &&
           !stop.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  };

  std::optional<Failure> failure;
  const auto n_flips = 1 + rng.below(3);
  for (std::uint64_t f = 0; f < n_flips && !failure; ++f) {
    wait_for_bursts(bursts_done.load(std::memory_order_acquire) + 2);
    collector.flip();
    // Grace discipline: the burst in flight at the flip may still be
    // writing the OLD (now standby) region. Two more completed bursts
    // guarantee it finished — the release/acquire pair on bursts_done makes
    // its writes visible — so the standby region is quiescent.
    const auto d0 = bursts_done.load(std::memory_order_acquire);
    wait_for_bursts(d0 + 2);

    const auto [epoch, region] = collector.epoch_snapshot();
    if (region != (epoch & 1)) {
      failure = Failure{"epoch snapshot torn across flip", {}};
      break;
    }

    for (std::uint64_t j = 0; j < kUniverse; ++j) {
      const auto r = collector.query_standby(core::sim_key(j));
      if (r.outcome == core::QueryOutcome::kFound && r.value != value_of(j)) {
        failure = Failure{"disciplined standby read returned a torn value "
                          "for key " +
                              std::to_string(j),
                          {}};
        break;
      }
    }
  }

  stop.store(true, std::memory_order_release);
  writer.join();

  // Final quiescent audit: with the writer joined, every found value in the
  // active region must also be some key's one true value.
  for (std::uint64_t j = 0; j < kUniverse && !failure; ++j) {
    const auto r = collector.query(core::sim_key(j));
    if (r.outcome == core::QueryOutcome::kFound && r.value != value_of(j)) {
      failure = Failure{"quiescent read returned a torn value", {}};
    }
  }
  return failure;
}

TEST(PropBackend, SketchWirePathAndQueriesMatchReference) {
  const auto report = check("sketch_wire_query_diff", sketch_wire_query_diff, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

TEST(PropBackend, DisciplinedReadsNeverTornUnderRotation) {
  CheckConfig cfg;
  cfg.cases = 10;  // each case runs a real writer thread
  const auto report = check("torn_read_rotation", torn_read_rotation, cfg);
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
}

// Fixed regression: the sketch ops answer (not drop) on a KV-backed
// collector, flagged unavailable — "wrong backend" is distinguishable from
// "dead collector" without a timeout.
TEST(PropBackend, SketchOpsOnKvCollectorFlagUnavailable) {
  core::DartConfig dart;
  dart.n_slots = 256;
  dart.n_addresses = 2;
  dart.value_bytes = 8;
  dart.master_seed = 3;
  core::Collector collector(dart, 0, endpoint());  // default KV backend

  net::Simulator sim{1};
  std::vector<std::pair<net::Ipv4Addr, net::NodeId>> arp;
  auto resolver = [&arp](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
    for (const auto& [addr, node] : arp) {
      if (addr == ip) return node;
    }
    return std::nullopt;
  };
  const auto service_ip = net::Ipv4Addr::from_octets(10, 0, 100, 1);
  core::QueryServiceNode service(collector, service_ip, resolver);
  const auto operator_ip = net::Ipv4Addr::from_octets(10, 9, 0, 1);
  core::ReportCrafter crafter(dart);
  core::OperatorClient op(crafter, operator_ip, {service_ip}, resolver);

  const auto op_node = sim.add_node(op);
  const auto svc_node = sim.add_node(service);
  arp.emplace_back(operator_ip, op_node);
  arp.emplace_back(service_ip, svc_node);
  sim.connect(op_node, svc_node, 500);

  const auto est_id = op.sketch_estimate(core::sim_key(1));
  const auto topk_id = op.sketch_topk(0, 4);
  sim.run();

  for (const auto id : {est_id, topk_id}) {
    const auto resp = op.take_sketch_response(id);
    ASSERT_TRUE(resp.has_value());
    EXPECT_TRUE(resp->unavailable());
    EXPECT_EQ(resp->estimate, 0u);
    EXPECT_TRUE(resp->hitters.empty());
  }
  EXPECT_EQ(service.sketch_served(), 2u);
  EXPECT_EQ(service.sketch_unavailable(), 2u);
  EXPECT_EQ(op.pending(), 0u);
}

}  // namespace
}  // namespace dart::check
