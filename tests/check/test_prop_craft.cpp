// Crafting pin: every zero-allocation template entry point of ReportCrafter
// (make_*_template + craft_*_into) must emit exactly the bytes of the
// field-by-field reference serializers, iCRC and DTA trailer included. The
// switch arm holds DartSwitchPipeline to the same bytes for KV, multiwrite,
// sketch and primitive rows, across retarget_collector/restore_collector
// template rebuilds. Each property runs 1000 seeded cases over random
// geometry (checksum_bits 1..32, value widths, N up to 20, which crosses the
// multiwrite crafter's 16-address batch limit), random collector and
// reporter endpoints, and PSNs at and above 2^24: RETH and atomic frames
// carry the low 24 bits on both paths, multiwrite frames all 32. The
// sanitizer matrix re-runs the suite with DART_NO_SIMD=1, because bursts and
// multiwrite ride the batch hash kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/property.hpp"
#include "check/reference_crafter.hpp"
#include "check/rng.hpp"
#include "common/hash.hpp"
#include "core/collector.hpp"
#include "core/oracle.hpp"
#include "core/report_crafter.hpp"
#include "switchsim/dart_switch.hpp"

namespace dart::check {
namespace {

// The field-by-field serializers every template frame is diffed against.
using Oracle = ReferenceCrafter;

constexpr std::byte kPoison{0xA5};

core::DartConfig gen_craft_config(Rng& rng) {
  core::DartConfig cfg;
  cfg.n_slots = 1 + rng.below(1u << 20);
  cfg.n_addresses = static_cast<std::uint32_t>(
      rng.chance(0.1) ? rng.range(17, 20) : rng.range(1, 4));
  cfg.checksum_bits = static_cast<std::uint32_t>(rng.range(1, 32));
  cfg.value_bytes = static_cast<std::uint32_t>(rng.range(1, 32));
  cfg.master_seed = rng.u64();
  return cfg;
}

net::MacAddr gen_mac(Rng& rng) {
  net::MacAddr mac{};
  for (auto& b : mac) b = static_cast<std::uint8_t>(rng.below(256));
  return mac;
}

core::ReporterEndpoint gen_reporter(Rng& rng) {
  core::ReporterEndpoint src;
  src.mac = gen_mac(rng);
  src.ip = net::Ipv4Addr{static_cast<std::uint32_t>(rng.u64())};
  src.udp_src_port = static_cast<std::uint16_t>(0xC000 + rng.below(0x4000));
  return src;
}

core::RemoteStoreInfo gen_row(Rng& rng, std::uint64_t n_slots,
                              std::uint32_t slot_bytes,
                              core::StoreBackendKind backend =
                                  core::StoreBackendKind::kKv) {
  core::RemoteStoreInfo row;
  row.mac = gen_mac(rng);
  row.ip = net::Ipv4Addr{static_cast<std::uint32_t>(rng.u64())};
  row.qpn = static_cast<std::uint32_t>(rng.below(1u << 24));
  row.rkey = static_cast<std::uint32_t>(rng.u64());
  row.base_vaddr = rng.below(1ull << 48);
  row.n_slots = n_slots;
  row.slot_bytes = slot_bytes;
  row.backend = backend;
  return row;
}

// PSNs below, at and above the 24-bit BTH field, plus the wrap edges.
std::uint32_t gen_psn(Rng& rng) {
  switch (rng.below(4)) {
    case 0:
      return static_cast<std::uint32_t>(rng.below(1u << 24));
    case 1:
      return static_cast<std::uint32_t>((1u << 24) + rng.below(0xFF00'0000u));
    case 2:
      return static_cast<std::uint32_t>(rng.u64());
    default:
      return rng.pick<std::uint32_t>({0xFF'FFFFu, 1u << 24, 0xFFFF'FFFFu});
  }
}

// Mostly 8-byte sim keys (the batched hash lane), sometimes odd widths.
std::vector<std::byte> gen_craft_key(Rng& rng) {
  if (rng.below(4) != 0) {
    const auto k = core::sim_key(rng.u64());
    return {k.begin(), k.end()};
  }
  return rng.bytes(1 + rng.below(16));
}

core::DtaPrimitivesConfig gen_primitives(Rng& rng) {
  core::DtaPrimitivesConfig p;
  p.ring.n_entries = 1 + rng.below(1u << 20);
  p.ring.value_bytes = static_cast<std::uint32_t>(rng.range(1, 32));
  p.counters.n_counters = 1 + rng.below(1u << 16);
  p.counters.seed = rng.u64();
  p.postcards.n_groups = 1 + rng.below(1024);
  p.postcards.max_hops = static_cast<std::uint32_t>(rng.range(1, 32));
  p.postcards.checksum_bits = static_cast<std::uint32_t>(rng.range(1, 32));
  p.postcards.value_bytes = static_cast<std::uint32_t>(rng.range(1, 16));
  p.postcards.seed = rng.u64();
  return p;
}

core::SketchBackendConfig gen_sketch(Rng& rng) {
  core::SketchBackendConfig s;
  s.rows = static_cast<std::uint32_t>(rng.range(1, 8));
  s.cols = 1 + rng.below(4096);
  s.seed = rng.u64();
  return s;
}

std::optional<Failure> diff(const std::string& what,
                            std::span<const std::byte> got,
                            std::span<const std::byte> want) {
  if (std::ranges::equal(got, want)) return std::nullopt;
  std::size_t off = 0;
  while (off < got.size() && off < want.size() && got[off] == want[off]) ++off;
  return Failure{what + " differs from the reference serializer at byte " +
                     std::to_string(off) + " (" + std::to_string(got.size()) +
                     " B crafted, " + std::to_string(want.size()) +
                     " B reference)",
                 std::vector<std::byte>(got.begin(), got.end())};
}

// Crafts one frame through `craft` into a poisoned buffer of the template's
// size and diffs what it reports as written against `want`.
template <typename Craft>
std::optional<Failure> expect_same(const std::string& what,
                                   const core::FrameTemplate& tpl,
                                   Craft craft,
                                   const std::vector<std::byte>& want) {
  std::vector<std::byte> got(tpl.frame_size(), kPoison);
  got.resize(craft(std::span<std::byte>(got)));
  return diff(what, got, want);
}

// --- crafter arm ------------------------------------------------------------

std::optional<Failure> craft_matches_reference(Rng& rng) {
  const auto cfg = gen_craft_config(rng);
  const core::ReportCrafter crafter(cfg);
  const Oracle oracle(cfg);
  const auto src = gen_reporter(rng);
  const auto kv = gen_row(rng, cfg.n_slots, cfg.slot_bytes());

  {  // WRITE by copy index, and by the precomputed slot address.
    const auto tpl = crafter.make_write_template(kv, src);
    const auto key = gen_craft_key(rng);
    const auto value = rng.bytes(cfg.value_bytes);
    const auto n = static_cast<std::uint32_t>(rng.below(cfg.n_addresses));
    const auto psn = gen_psn(rng);
    const auto want = oracle.craft_write(kv, src, key, value, n, psn);
    if (auto f = expect_same("craft_write_into", tpl,
                             [&](std::span<std::byte> out) {
                               return crafter.craft_write_into(
                                   tpl, key, value, n, psn, out);
                             },
                             want)) {
      return f;
    }
    const auto slot = crafter.hashes().address_of(key, n, kv.n_slots);
    if (auto f = expect_same("craft_write_into_at", tpl,
                             [&](std::span<std::byte> out) {
                               return crafter.craft_write_into_at(
                                   tpl, key, value, slot, psn, out);
                             },
                             want)) {
      return f;
    }
  }

  {  // WRITE bursts: crosses the 64-op hash chunk, mixes key widths.
    const auto tpl = crafter.make_write_template(kv, src);
    const std::size_t n_ops = 1 + rng.below(90);
    std::vector<std::vector<std::byte>> keys(n_ops);
    std::vector<std::vector<std::byte>> values(n_ops);
    std::vector<core::ReportCrafter::WriteOp> ops(n_ops);
    for (std::size_t i = 0; i < n_ops; ++i) {
      keys[i] = gen_craft_key(rng);
      values[i] = rng.bytes(cfg.value_bytes);
      ops[i] = {keys[i], values[i],
                static_cast<std::uint32_t>(rng.below(cfg.n_addresses)),
                gen_psn(rng)};
    }
    std::vector<std::byte> burst(n_ops * tpl.frame_size(), kPoison);
    const auto crafted = crafter.craft_write_into_n(tpl, ops, burst);
    if (crafted != n_ops) {
      return Failure{"craft_write_into_n crafted " + std::to_string(crafted) +
                         " of " + std::to_string(n_ops) + " frames",
                     {}};
    }
    for (std::size_t i = 0; i < n_ops; ++i) {
      const auto want = oracle.craft_write(kv, src, ops[i].key, ops[i].value,
                                           ops[i].n, ops[i].psn);
      const auto frame = std::span<const std::byte>(burst).subspan(
          i * tpl.frame_size(), tpl.frame_size());
      if (auto f = diff("craft_write_into_n frame " + std::to_string(i) +
                            " (key width " +
                            std::to_string(ops[i].key.size()) + ")",
                        frame, want)) {
        return f;
      }
    }
  }

  {  // FETCH_ADD and COMPARE_SWAP on arbitrary words.
    const auto vaddr = rng.u64();
    const auto operand = rng.u64();
    const auto compare = rng.u64();
    const auto psn = gen_psn(rng);
    const auto fa = crafter.make_atomic_template(kv, src,
                                                 rdma::Opcode::kRcFetchAdd);
    if (auto f = expect_same("craft_fetch_add_into", fa,
                             [&](std::span<std::byte> out) {
                               return crafter.craft_fetch_add_into(
                                   fa, vaddr, operand, psn, out);
                             },
                             oracle.craft_fetch_add(kv, src, vaddr, operand,
                                                    psn))) {
      return f;
    }
    const auto cs = crafter.make_atomic_template(kv, src,
                                                 rdma::Opcode::kRcCompareSwap);
    if (auto f = expect_same("craft_compare_swap_into", cs,
                             [&](std::span<std::byte> out) {
                               return crafter.craft_compare_swap_into(
                                   cs, vaddr, compare, operand, psn, out);
                             },
                             oracle.craft_compare_swap(kv, src, vaddr, compare,
                                                       operand, psn))) {
      return f;
    }
  }

  {  // §7 DTA multiwrite: all N addresses in one frame, 32-bit PSN.
    const auto tpl = crafter.make_multiwrite_template(kv, src);
    const auto key = gen_craft_key(rng);
    const auto value = rng.bytes(cfg.value_bytes);
    const auto psn = gen_psn(rng);
    if (auto f = expect_same("craft_multiwrite_into", tpl,
                             [&](std::span<std::byte> out) {
                               return crafter.craft_multiwrite_into(
                                   tpl, key, value, psn, out);
                             },
                             oracle.craft_multiwrite(kv, src, key, value,
                                                     psn))) {
      return f;
    }
  }

  const auto prim = gen_primitives(rng);

  {  // Append: entry `seq` of the ring, any lap.
    const auto row = gen_row(rng, prim.ring.n_entries, prim.ring.entry_bytes());
    const auto tpl = crafter.make_append_template(row, src, prim.ring);
    const auto seq = 1 + (rng.chance(0.5) ? rng.below(prim.ring.n_entries * 3)
                                          : rng.below(~0ull));
    const auto value = rng.bytes(prim.ring.value_bytes);
    const auto psn = gen_psn(rng);
    if (auto f = expect_same("craft_append_into", tpl,
                             [&](std::span<std::byte> out) {
                               return crafter.craft_append_into(
                                   tpl, prim.ring, seq, value, psn, out);
                             },
                             oracle.craft_append(row, src, prim.ring, seq,
                                                 value, psn))) {
      return f;
    }
  }

  {  // Key-Increment: FETCH_ADD on the counter cell owning the key.
    const auto row = gen_row(rng, prim.counters.n_counters, 8);
    const auto tpl =
        crafter.make_atomic_template(row, src, rdma::Opcode::kRcFetchAdd);
    const auto key = gen_craft_key(rng);
    const auto delta = rng.u64();
    const auto psn = gen_psn(rng);
    if (auto f = expect_same("craft_key_increment_into", tpl,
                             [&](std::span<std::byte> out) {
                               return crafter.craft_key_increment_into(
                                   tpl, prim.counters, key, delta, psn, out);
                             },
                             oracle.craft_key_increment(row, src, prim.counters,
                                                        key, delta, psn))) {
      return f;
    }
  }

  {  // Sketch row increment: FETCH_ADD on row `r`'s cell of the key.
    const auto sketch = gen_sketch(rng);
    const auto row = gen_row(rng, sketch.n_cells(), 8,
                             core::StoreBackendKind::kSketch);
    const auto tpl =
        crafter.make_atomic_template(row, src, rdma::Opcode::kRcFetchAdd);
    const auto key = gen_craft_key(rng);
    const auto r = static_cast<std::uint32_t>(rng.below(sketch.rows));
    const auto delta = rng.u64();
    const auto psn = gen_psn(rng);
    if (auto f = expect_same("craft_sketch_increment_into", tpl,
                             [&](std::span<std::byte> out) {
                               return crafter.craft_sketch_increment_into(
                                   tpl, sketch.geometry(), key, r, delta, psn,
                                   out);
                             },
                             oracle.craft_sketch_increment(row, src, sketch,
                                                           key, r, delta,
                                                           psn))) {
      return f;
    }
  }

  {  // Postcarding: hop `hop` of the flow's slot group.
    const auto row = gen_row(rng, prim.postcards.n_slots(),
                             prim.postcards.slot_bytes());
    const auto tpl = crafter.make_postcard_template(row, src, prim.postcards);
    const auto flow = gen_craft_key(rng);
    const auto hop =
        static_cast<std::uint32_t>(rng.below(prim.postcards.max_hops));
    const auto value = rng.bytes(prim.postcards.value_bytes);
    const auto psn = gen_psn(rng);
    if (auto f = expect_same("craft_postcard_into", tpl,
                             [&](std::span<std::byte> out) {
                               return crafter.craft_postcard_into(
                                   tpl, prim.postcards, flow, hop, value, psn,
                                   out);
                             },
                             oracle.craft_postcard(row, src, prim.postcards,
                                                   flow, hop, value, psn))) {
      return f;
    }
  }
  return std::nullopt;
}

TEST(PropCraft, TemplateFramesMatchReferenceSerializers) {
  const auto report =
      check("craft_matches_reference", craft_matches_reference, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

// --- switch arm -------------------------------------------------------------
//
// A switch with a few KV and sketch rows (and, for some ids, primitive
// rows) is driven through every data-plane entry point and the failover
// control plane. An independent model tracks each row's current
// destination, PSN register and Append tail, and predicts every frame with
// the reference serializers.

std::optional<Failure> switch_matches_reference(Rng& rng) {
  switchsim::DartSwitchPipeline::Config sc;
  sc.dart = gen_craft_config(rng);
  sc.mac = gen_mac(rng);
  sc.ip = net::Ipv4Addr{static_cast<std::uint32_t>(rng.u64())};
  sc.max_collectors = 8;
  sc.write_mode = core::WriteMode::kAllSlots;
  sc.use_dta_multiwrite = rng.chance(0.3);
  sc.primitives = gen_primitives(rng);
  sc.sketch = gen_sketch(rng);
  switchsim::DartSwitchPipeline sw(sc);

  const Oracle oracle(sc.dart);
  const HashFamily hashes(sc.dart.n_addresses, sc.dart.master_seed);
  core::ReporterEndpoint self;
  self.mac = sc.mac;
  self.ip = sc.ip;

  const auto gen_collector_row = [&](std::uint32_t id) {
    auto row = rng.chance(0.3)
                   ? gen_row(rng, sc.sketch.n_cells(), 8,
                             core::StoreBackendKind::kSketch)
                   : gen_row(rng, 1 + rng.below(1u << 20),
                             sc.dart.slot_bytes());
    row.collector_id = id;
    return row;
  };

  struct PrimitiveRows {
    core::RemoteStoreInfo ring, counters, postcards;
  };
  const auto n_kv = static_cast<std::uint32_t>(rng.range(1, 4));
  const auto n_prim = static_cast<std::uint32_t>(rng.below(n_kv + 1));
  std::vector<core::RemoteStoreInfo> home(n_kv);  // rows as first loaded
  std::vector<core::RemoteStoreInfo> live(n_kv);  // rows the table holds now
  std::vector<PrimitiveRows> prim(n_prim);
  std::vector<std::uint32_t> psn(n_kv, 0);
  std::vector<std::uint64_t> tail(n_kv, 0);
  for (std::uint32_t id = 0; id < n_kv; ++id) {
    home[id] = live[id] = gen_collector_row(id);
    sw.load_collector(home[id]);
  }
  for (std::uint32_t id = 0; id < n_prim; ++id) {
    const auto& p = sc.primitives;
    prim[id] = {gen_row(rng, p.ring.n_entries, p.ring.entry_bytes()),
                gen_row(rng, p.counters.n_counters, 8),
                gen_row(rng, p.postcards.n_slots(), p.postcards.slot_bytes())};
    prim[id].ring.collector_id = prim[id].counters.collector_id =
        prim[id].postcards.collector_id = id;
    sw.load_primitives(prim[id].ring, prim[id].counters, prim[id].postcards);
  }

  const auto next_psn = [&](std::uint32_t id) {
    const std::uint32_t p = psn[id];
    psn[id] = (p + 1) & 0xFF'FFFFu;
    return p;
  };
  // Frames one telemetry event must deparse to, per the model.
  const auto expect_telemetry = [&](std::span<const std::byte> key,
                                    std::span<const std::byte> value,
                                    std::vector<std::vector<std::byte>>& out) {
    const auto id = hashes.collector_of(key, n_kv);
    const auto& row = live[id];
    if (row.backend == core::StoreBackendKind::kSketch) {
      for (std::uint32_t r = 0; r < sc.sketch.rows; ++r) {
        out.push_back(oracle.craft_sketch_increment(row, self, sc.sketch, key,
                                                    r, 1, next_psn(id)));
      }
    } else if (sc.use_dta_multiwrite) {
      out.push_back(oracle.craft_multiwrite(row, self, key, value,
                                            next_psn(id)));
    } else {
      for (std::uint32_t n = 0; n < sc.dart.n_addresses; ++n) {
        out.push_back(
            oracle.craft_write(row, self, key, value, n, next_psn(id)));
      }
    }
  };
  const auto diff_frames =
      [](const std::string& what,
         const std::vector<std::vector<std::byte>>& got,
         const std::vector<std::vector<std::byte>>& want)
      -> std::optional<Failure> {
    if (got.size() != want.size()) {
      return Failure{what + " emitted " + std::to_string(got.size()) +
                         " frames, the model expects " +
                         std::to_string(want.size()),
                     {}};
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (auto f = diff(what + " frame " + std::to_string(i), got[i],
                        want[i])) {
        return f;
      }
    }
    return std::nullopt;
  };

  const auto n_steps = 1 + rng.below(24);
  for (std::uint64_t step = 0; step < n_steps; ++step) {
    const auto what = "step " + std::to_string(step) + ": ";
    const auto kind = rng.below(n_prim == 0 ? 4 : 7);
    if (kind == 0) {  // one telemetry event
      const auto key = gen_craft_key(rng);
      const auto value = rng.bytes(sc.dart.value_bytes);
      std::vector<std::vector<std::byte>> want;
      expect_telemetry(key, value, want);
      if (auto f = diff_frames(what + "on_telemetry",
                               sw.on_telemetry(key, value), want)) {
        return f;
      }
    } else if (kind == 1) {  // a burst through the batched hash path
      const std::size_t n = 1 + rng.below(80);
      std::vector<std::vector<std::byte>> keys(n);
      std::vector<std::vector<std::byte>> values(n);
      std::vector<switchsim::DartSwitchPipeline::TelemetryEvent> events(n);
      std::vector<std::vector<std::byte>> want;
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] = gen_craft_key(rng);
        values[i] = rng.bytes(sc.dart.value_bytes);
        events[i] = {keys[i], values[i]};
        expect_telemetry(keys[i], values[i], want);
      }
      if (auto f = diff_frames(what + "on_telemetry_batch",
                               sw.on_telemetry_batch(events), want)) {
        return f;
      }
    } else if (kind == 2) {  // failover onto a fresh backup endpoint
      const auto id = static_cast<std::uint32_t>(rng.below(n_kv));
      auto backup = gen_collector_row(static_cast<std::uint32_t>(n_kv + step));
      sw.retarget_collector(id, backup);
      backup.collector_id = id;
      live[id] = backup;
      psn[id] = 0;
    } else if (kind == 3) {  // failback to the original row
      const auto id = static_cast<std::uint32_t>(rng.below(n_kv));
      sw.restore_collector(home[id]);
      live[id] = home[id];
      psn[id] = 0;
    } else {  // the DTA primitives
      const auto key = gen_craft_key(rng);
      const auto id = hashes.collector_of(key, n_prim);
      const auto& p = sc.primitives;
      std::vector<std::byte> got;
      std::vector<std::byte> want;
      std::string entry;
      if (kind == 4) {
        entry = "on_append_event";
        const auto value = rng.bytes(p.ring.value_bytes);
        got = sw.on_append_event(key, value);
        const auto seq = ++tail[id];
        want = oracle.craft_append(prim[id].ring, self, p.ring, seq, value,
                                   next_psn(id));
      } else if (kind == 5) {
        entry = "on_increment_event";
        const auto delta = rng.u64();
        got = sw.on_increment_event(key, delta);
        want = oracle.craft_key_increment(prim[id].counters, self, p.counters,
                                          key, delta, next_psn(id));
      } else {
        entry = "on_postcard_event";
        const auto hop = static_cast<std::uint32_t>(
            rng.below(p.postcards.max_hops));
        const auto value = rng.bytes(p.postcards.value_bytes);
        got = sw.on_postcard_event(key, hop, value);
        want = oracle.craft_postcard(prim[id].postcards, self, p.postcards,
                                     key, hop, value, next_psn(id));
      }
      if (auto f = diff(what + entry, got, want)) return f;
    }
  }
  return std::nullopt;
}

TEST(PropCraft, SwitchFramesMatchReferenceSerializers) {
  const auto report =
      check("switch_matches_reference", switch_matches_reference, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

}  // namespace
}  // namespace dart::check
