// Differential properties for the DTA translator primitives: random
// Append / Key-Increment / Postcarding op streams through the REAL wire
// path (ReportCrafter frames → SimulatedRnic → DMA into the primitive
// regions) must leave byte-identical region memory — and identical
// drain/read answers — to the reference models applying the same logical
// ops directly. 1000 seeded cases per suite; failures shrink and print a
// DART_SEED repro line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "check/gen.hpp"
#include "check/golden.hpp"
#include "check/property.hpp"
#include "check/reference.hpp"
#include "check/reference_crafter.hpp"
#include "core/oracle.hpp"
#include "core/query_protocol.hpp"

namespace dart::check {
namespace {

core::DartConfig tiny_kv_config() {
  // The KV store is idle in these properties; keep its region small.
  core::DartConfig cfg;
  cfg.n_slots = 16;
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 8;
  cfg.master_seed = 0xDA27'0F00ull;
  return cfg;
}

std::optional<Failure> region_divergence(const char* region,
                                         std::span<const std::byte> real,
                                         std::span<const std::byte> reference,
                                         std::uint64_t op_index,
                                         std::vector<std::byte> frame) {
  if (std::ranges::equal(real, reference)) return std::nullopt;
  std::size_t off = 0;
  while (off < real.size() && real[off] == reference[off]) ++off;
  return Failure{std::string(region) + " byte " + std::to_string(off) +
                     " diverged after op " + std::to_string(op_index) +
                     ": real 0x" + to_hex({&real[off], 1}) + " reference 0x" +
                     to_hex({&reference[off], 1}),
                 std::move(frame)};
}

// Mixed primitive streams: all three regions stay byte-identical to the
// reference after EVERY op, and the ingest counters conserve (each
// non-dropped frame executed, none rejected).
std::optional<Failure> primitive_stream_property(Rng& rng) {
  const auto kv = tiny_kv_config();
  const auto prim = gen_small_primitives(rng);
  WireDriver real(kv);
  real.enable_primitives(prim);
  ReferenceFabric reference(kv);
  reference.enable_primitives(prim);

  std::uint64_t submitted = 0;
  const auto n_ops = 1 + rng.below(16);
  for (std::uint64_t i = 0; i < n_ops; ++i) {
    const auto op = gen_primitive_op(rng, prim);
    auto frame = real.submit(op);
    reference.apply(op);
    submitted += op.dropped ? 0 : 1;

    auto& collector = real.collector();
    if (auto f = region_divergence("ring", collector.ring().memory(),
                                   reference.ring().memory(), i, frame)) {
      return f;
    }
    if (auto f = region_divergence("counters", collector.counters().memory(),
                                   reference.counters().memory(), i, frame)) {
      return f;
    }
    if (auto f = region_divergence("postcards", collector.postcards().memory(),
                                   reference.postcards().memory(), i, frame)) {
      return f;
    }
  }

  if (real.append_tail() != reference.append_tail()) {
    return Failure{"append tails diverged: real " +
                       std::to_string(real.append_tail()) + " reference " +
                       std::to_string(reference.append_tail()),
                   {}};
  }
  const auto& c = real.collector().ingest_counters();
  if (c.executed.load() != submitted) {
    return Failure{"executed " + std::to_string(c.executed.load()) +
                       " ops, submitted " + std::to_string(submitted),
                   {}};
  }
  if (c.bad_icrc.load() != 0 || c.bad_opcode.load() != 0 ||
      c.out_of_bounds.load() != 0 || c.unaligned_atomic.load() != 0) {
    return Failure{"valid primitive frames were rejected by validation", {}};
  }
  return std::nullopt;
}

TEST(PropPrimitives, StreamsMatchReferenceModels) {
  const auto report = check("primitive_stream_diff", primitive_stream_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

// Append wrap/overwrite: appends (with loss) interleaved with capped
// drains. Wire and reference drains must agree entry-for-entry, and the
// books must balance — every sequence number up to the highest one that
// landed is either returned by some drain or counted missed once the ring
// runs dry. (Seqs the switch consumed for frames lost at the very tail are
// undetectable until a later entry lands — the reader has no view of the
// switch's tail register.)
std::optional<Failure> append_drain_property(Rng& rng) {
  const auto kv = tiny_kv_config();
  const auto prim = gen_small_primitives(rng);
  WireDriver real(kv);
  real.enable_primitives(prim);
  ReferenceFabric reference(kv);
  reference.enable_primitives(prim);

  std::uint64_t delivered = 0;
  // Highest sequence number whose frame actually landed. Trailing drops
  // (seqs the switch consumed whose frames were lost, with nothing landing
  // after them) are invisible to the reader — it balances books against
  // this, not the switch tail it cannot see.
  std::uint64_t seen_max = 0;
  const auto n_rounds = 1 + rng.below(6);
  for (std::uint64_t round = 0; round < n_rounds; ++round) {
    // A burst longer than tiny rings (4-16 entries) laps the reader.
    const auto burst = rng.below(3 * prim.ring.n_entries + 1);
    for (std::uint64_t i = 0; i < burst; ++i) {
      auto op = gen_primitive_op(rng, prim, /*drop_probability=*/0.2);
      op.kind = ReportOp::Kind::kAppend;
      if (op.value.size() != prim.ring.value_bytes) {
        op.value = gen_value(rng, prim.ring.value_bytes);
      }
      (void)real.submit(op);
      reference.apply(op);
      if (!op.dropped) seen_max = real.append_tail();
    }

    const auto cap = rng.chance(0.5) ? 1 + rng.below(prim.ring.n_entries)
                                     : SIZE_MAX;
    auto real_drain = real.collector().ring().drain(cap);
    auto ref_drain = reference.ring().drain(cap);
    if (real_drain.missed != ref_drain.missed ||
        real_drain.next_seq != ref_drain.next_seq ||
        real_drain.entries.size() != ref_drain.entries.size()) {
      return Failure{"drain shape diverged in round " + std::to_string(round) +
                         ": real {missed " + std::to_string(real_drain.missed) +
                         ", next " + std::to_string(real_drain.next_seq) +
                         ", n " + std::to_string(real_drain.entries.size()) +
                         "} reference {missed " +
                         std::to_string(ref_drain.missed) + ", next " +
                         std::to_string(ref_drain.next_seq) + ", n " +
                         std::to_string(ref_drain.entries.size()) + "}",
                     {}};
    }
    std::uint64_t prev_seq = 0;
    for (std::size_t i = 0; i < real_drain.entries.size(); ++i) {
      const auto& a = real_drain.entries[i];
      const auto& b = ref_drain.entries[i];
      if (a.seq != b.seq || a.value != b.value) {
        return Failure{"drained entry " + std::to_string(i) +
                           " diverged: real seq " + std::to_string(a.seq) +
                           " reference seq " + std::to_string(b.seq),
                       {}};
      }
      if (a.seq <= prev_seq) {
        return Failure{"drain not strictly ascending at entry " +
                           std::to_string(i),
                       {}};
      }
      prev_seq = a.seq;
    }
    delivered += real_drain.entries.size();
  }

  // Run the reader dry, then balance the books against the switch tail.
  auto final_real = real.collector().ring().drain();
  auto final_ref = reference.ring().drain();
  if (final_real.entries.size() != final_ref.entries.size() ||
      final_real.missed != final_ref.missed) {
    return Failure{"final drain diverged", {}};
  }
  delivered += final_real.entries.size();
  const auto missed = real.collector().ring().missed_total();
  if (delivered + missed != seen_max) {
    return Failure{"sequence books don't balance: delivered " +
                       std::to_string(delivered) + " + missed " +
                       std::to_string(missed) + " != highest landed seq " +
                       std::to_string(seen_max),
                   {}};
  }
  if (real.collector().ring().cursor() != seen_max + 1) {
    return Failure{"drained-dry cursor " +
                       std::to_string(real.collector().ring().cursor()) +
                       " != highest landed seq + 1 " +
                       std::to_string(seen_max + 1),
                   {}};
  }
  // The switch consumed every trailing-drop seq too: the tail can only be
  // ahead of what landed, never behind.
  if (real.append_tail() < seen_max) {
    return Failure{"switch tail " + std::to_string(real.append_tail()) +
                       " behind highest landed seq " + std::to_string(seen_max),
                   {}};
  }
  return std::nullopt;
}

TEST(PropPrimitives, AppendDrainsBalanceAcrossWrap) {
  const auto report = check("append_drain_books", append_drain_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

// Key-Increment merge equivalence: many "switches" (independent PSN
// spaces don't matter — FETCH_ADD is order-free) adding into one collector
// array equals a reference tally of the combined stream at the reference
// cells, cell for cell and key for key.
std::optional<Failure> key_increment_merge_property(Rng& rng) {
  const auto kv = tiny_kv_config();
  const auto prim = gen_small_primitives(rng);
  WireDriver real(kv);
  real.enable_primitives(prim);
  const auto ref_cell = [&](std::uint64_t key) {
    return reference_counter_cell(core::sim_key(key), prim.counters.seed,
                                  prim.counters.n_counters);
  };
  std::vector<std::uint64_t> tally(prim.counters.n_counters, 0);

  const auto n_ops = 1 + rng.below(24);
  for (std::uint64_t i = 0; i < n_ops; ++i) {
    auto op = gen_primitive_op(rng, prim);
    op.kind = ReportOp::Kind::kKeyIncrement;
    if (op.operand == 0) op.operand = 1 + rng.below(1u << 16);
    (void)real.submit(op);
    if (!op.dropped) tally[ref_cell(op.key)] += op.operand;
  }

  auto& cells = real.collector().counters();
  for (std::uint64_t c = 0; c < prim.counters.n_counters; ++c) {
    if (cells.read_cell(c) != tally[c]) {
      return Failure{"cell " + std::to_string(c) + " diverged: wire " +
                         std::to_string(cells.read_cell(c)) + " reference " +
                         std::to_string(tally[c]),
                     {}};
    }
  }
  for (std::uint64_t k = 0; k < 32; ++k) {
    if (cells.estimate(core::sim_key(k)) != tally[ref_cell(k)]) {
      return Failure{"key " + std::to_string(k) + " reads diverged", {}};
    }
  }
  return std::nullopt;
}

TEST(PropPrimitives, KeyIncrementEqualsReferenceSketch) {
  const auto report =
      check("key_increment_merge", key_increment_merge_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

// Postcarding partial groups: after a random postcard stream, every flow's
// read_group must match an independent last-writer model — the validity
// bit of hop h is set iff the LAST flow that wrote (group, h) carries the
// queried flow's checksum (group collisions steal slots; loss leaves
// holes).
std::optional<Failure> postcard_group_property(Rng& rng) {
  const auto kv = tiny_kv_config();
  const auto prim = gen_small_primitives(rng);
  WireDriver real(kv);
  real.enable_primitives(prim);
  ReferenceFabric reference(kv);
  reference.enable_primitives(prim);

  struct LastWrite {
    std::uint32_t checksum = 0;
    std::vector<std::byte> value;
  };
  std::map<std::uint64_t, LastWrite> last;  // flat slot index → last writer

  const auto n_ops = 1 + rng.below(24);
  for (std::uint64_t i = 0; i < n_ops; ++i) {
    auto op = gen_primitive_op(rng, prim);
    op.kind = ReportOp::Kind::kPostcard;
    op.hop = static_cast<std::uint32_t>(rng.below(prim.postcards.max_hops));
    if (op.value.size() != prim.postcards.value_bytes) {
      op.value = gen_value(rng, prim.postcards.value_bytes);
    }
    (void)real.submit(op);
    reference.apply(op);
    if (!op.dropped) {
      const auto flow = core::sim_key(op.key);
      const auto slot =
          prim.postcards.slot_index(prim.postcards.group_of(flow), op.hop);
      last[slot] = LastWrite{prim.postcards.checksum_of(flow), op.value};
    }
  }

  for (std::uint64_t f = 0; f < 8; ++f) {
    const auto flow = core::sim_key(f);
    const auto real_view = real.collector().postcards().read_group(flow);
    const auto ref_view = reference.postcards().read_group(flow);
    if (real_view.group != ref_view.group ||
        real_view.valid_mask != ref_view.valid_mask ||
        real_view.hops != ref_view.hops) {
      return Failure{"flow " + std::to_string(f) +
                         " group view diverged: real mask 0x" +
                         std::to_string(real_view.valid_mask) +
                         " reference mask 0x" +
                         std::to_string(ref_view.valid_mask),
                     {}};
    }
    // Independent model: expected mask + values from the last-writer map.
    const auto want = prim.postcards.checksum_of(flow);
    std::uint32_t expect_mask = 0;
    for (std::uint32_t h = 0; h < prim.postcards.max_hops; ++h) {
      const auto it = last.find(prim.postcards.slot_index(real_view.group, h));
      if (it == last.end()) continue;
      if (it->second.checksum == want) {
        expect_mask |= 1u << h;
        if (real_view.hops[h] != it->second.value) {
          return Failure{"flow " + std::to_string(f) + " hop " +
                             std::to_string(h) +
                             " value differs from last-writer model",
                         {}};
        }
      }
    }
    if (real_view.valid_mask != expect_mask) {
      return Failure{"flow " + std::to_string(f) + " mask 0x" +
                         std::to_string(real_view.valid_mask) +
                         " != model mask 0x" + std::to_string(expect_mask),
                     {}};
    }
  }
  return std::nullopt;
}

TEST(PropPrimitives, PostcardGroupsMatchLastWriterModel) {
  const auto report = check("postcard_groups", postcard_group_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

// Wire-protocol totality: every encoded primitive request/response parses
// back field-identical, for random ops, sizes, and flags.
std::optional<Failure> primitive_protocol_roundtrip(Rng& rng) {
  core::PrimitiveRequest req;
  req.op = rng.pick<core::PrimitiveOp>({core::PrimitiveOp::kDrainRing,
                                        core::PrimitiveOp::kReadCounter,
                                        core::PrimitiveOp::kReadPostcardGroup});
  req.request_id = rng.below(1ull << 48);
  req.epoch = static_cast<std::uint32_t>(rng.below(1ull << 32));
  if (req.op == core::PrimitiveOp::kDrainRing) {
    req.max_entries = rng.below(1ull << 20);
  } else {
    const auto key = core::sim_key(gen_key(rng));
    req.key.assign(key.begin(), key.end());
  }
  const auto req_wire = core::encode_primitive_request(req);
  const auto req_back = core::parse_primitive_request(req_wire);
  if (!req_back.has_value() || req_back->op != req.op ||
      req_back->request_id != req.request_id || req_back->epoch != req.epoch ||
      req_back->max_entries != req.max_entries || req_back->key != req.key) {
    return Failure{"primitive request did not roundtrip", req_wire};
  }

  core::PrimitiveResponse resp;
  resp.op = req.op;
  resp.request_id = req.request_id;
  resp.epoch = req.epoch;
  if (rng.chance(0.2)) resp.flags |= core::kResponseDegraded;
  if (rng.chance(0.1)) resp.flags |= core::kResponsePrimitiveUnavailable;
  resp.stale_epochs = static_cast<std::uint16_t>(rng.below(1u << 16));
  const auto value_bytes = 1 + rng.below(16);
  switch (resp.op) {
    case core::PrimitiveOp::kDrainRing: {
      resp.missed = rng.below(1u << 10);
      resp.next_seq = rng.below(1u << 20);
      resp.entry_value_bytes = static_cast<std::uint16_t>(value_bytes);
      const auto n = rng.below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        resp.entries.push_back(core::RingEntryWire{
            1 + rng.below(1u << 20),
            gen_value(rng, static_cast<std::uint32_t>(value_bytes))});
      }
      break;
    }
    case core::PrimitiveOp::kReadCounter:
      resp.cell_index = rng.below(1u << 16);
      resp.counter_value = rng.below(1ull << 40);
      break;
    case core::PrimitiveOp::kReadPostcardGroup: {
      resp.group_index = rng.below(1u << 10);
      resp.max_hops = static_cast<std::uint8_t>(1 + rng.below(32));
      resp.valid_mask = static_cast<std::uint32_t>(
          rng.below(1ull << resp.max_hops));
      resp.hop_value_bytes = static_cast<std::uint16_t>(value_bytes);
      for (std::uint32_t h = 0; h < resp.max_hops; ++h) {
        resp.hops.push_back(
            gen_value(rng, static_cast<std::uint32_t>(value_bytes)));
      }
      break;
    }
  }
  const auto resp_wire = core::encode_primitive_response(resp);
  const auto back = core::parse_primitive_response(resp_wire);
  if (!back.has_value()) {
    return Failure{"primitive response did not parse", resp_wire};
  }
  const bool equal =
      back->op == resp.op && back->request_id == resp.request_id &&
      back->epoch == resp.epoch && back->flags == resp.flags &&
      back->stale_epochs == resp.stale_epochs && back->missed == resp.missed &&
      back->next_seq == resp.next_seq &&
      back->entry_value_bytes == resp.entry_value_bytes &&
      back->entries.size() == resp.entries.size() &&
      back->cell_index == resp.cell_index &&
      back->counter_value == resp.counter_value &&
      back->group_index == resp.group_index &&
      back->max_hops == resp.max_hops &&
      back->valid_mask == resp.valid_mask &&
      back->hop_value_bytes == resp.hop_value_bytes &&
      back->hops == resp.hops;
  if (!equal) return Failure{"primitive response did not roundtrip", resp_wire};
  for (std::size_t i = 0; i < resp.entries.size(); ++i) {
    if (back->entries[i].seq != resp.entries[i].seq ||
        back->entries[i].value != resp.entries[i].value) {
      return Failure{"drain entry " + std::to_string(i) + " did not roundtrip",
                     resp_wire};
    }
  }
  return std::nullopt;
}

TEST(PropPrimitives, ProtocolRoundTrips) {
  const auto report =
      check("primitive_protocol_roundtrip", primitive_protocol_roundtrip, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

}  // namespace
}  // namespace dart::check
