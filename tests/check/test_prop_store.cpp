// Store- and protocol-level properties: slot encoding, shard partitioning,
// hash-family ranges, query-protocol roundtrips, and single-byte/truncation
// robustness of the wire parsers. 1000 seeded cases each.
#include <gtest/gtest.h>

#include <algorithm>

#include "check/gen.hpp"
#include "check/golden.hpp"
#include "check/property.hpp"
#include "check/reference.hpp"
#include "core/oracle.hpp"
#include "core/query_protocol.hpp"
#include "core/store.hpp"

namespace dart::check {
namespace {

// write_one(key, value, n) must place exactly encode_slot_payload's bytes at
// slot_offset(slot_index(key, n)) and touch nothing else.
std::optional<Failure> slot_encoding_property(Rng& rng) {
  const auto cfg = gen_small_config(rng);
  core::DartStore store(cfg);
  const auto key = core::sim_key(gen_key(rng));
  const auto value = gen_value(rng, cfg.value_bytes);
  const auto n = static_cast<std::uint32_t>(rng.below(cfg.n_addresses));

  store.write_one(key, value, n);

  std::vector<std::byte> expected;
  store.encode_slot_payload(key, value, expected);
  if (expected.size() != cfg.slot_bytes()) {
    return Failure{"slot payload is " + std::to_string(expected.size()) +
                       " bytes, slot_bytes() says " +
                       std::to_string(cfg.slot_bytes()),
                   expected};
  }
  const auto index = store.slot_index(key, n);
  const auto mem = store.memory();
  const auto off = store.slot_offset(index);
  if (!std::equal(expected.begin(), expected.end(), mem.begin() + off)) {
    return Failure{"slot " + std::to_string(index) +
                       " content differs from encode_slot_payload",
                   expected};
  }
  // Nothing outside the written slot may change.
  for (std::size_t i = 0; i < mem.size(); ++i) {
    if (i >= off && i < off + expected.size()) continue;
    if (mem[i] != std::byte{0}) {
      return Failure{"write_one leaked to byte " + std::to_string(i), {}};
    }
  }
  // The decoded view must round-trip the checksum and value.
  const auto slot = store.read_slot(index);
  if (slot.checksum != store.key_checksum(key)) {
    return Failure{"decoded checksum mismatch", {}};
  }
  if (!std::ranges::equal(slot.value, value)) {
    return Failure{"decoded value mismatch", {}};
  }
  return std::nullopt;
}

TEST(PropStore, SlotEncodingMatchesWirePayload) {
  const auto report = check("slot_encoding", slot_encoding_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

// shard_of_slot and shard_slot_range must be exact inverses: ranges tile
// [0, M) without gaps or overlap, and every slot maps back to its range.
std::optional<Failure> shard_partition_property(Rng& rng) {
  const auto n_slots = 1 + rng.below(4096);
  const auto n_shards = static_cast<std::uint32_t>(
      1 + rng.below(std::min<std::uint64_t>(n_slots, 64)));

  std::uint64_t expected_lo = 0;
  for (std::uint32_t s = 0; s < n_shards; ++s) {
    const auto [lo, hi] = core::shard_slot_range(s, n_slots, n_shards);
    if (lo != expected_lo) {
      return Failure{"shard " + std::to_string(s) + " starts at " +
                         std::to_string(lo) + ", expected " +
                         std::to_string(expected_lo),
                     {}};
    }
    expected_lo = hi;
    // Spot-check membership across the range (endpoints + a random probe).
    for (const auto i : {lo, hi == lo ? lo : hi - 1,
                         lo + (hi > lo ? rng.below(hi - lo) : 0)}) {
      if (i < hi && core::shard_of_slot(i, n_slots, n_shards) != s) {
        return Failure{"slot " + std::to_string(i) + " maps to shard " +
                           std::to_string(core::shard_of_slot(i, n_slots,
                                                              n_shards)) +
                           ", range says " + std::to_string(s),
                       {}};
      }
    }
  }
  if (expected_lo != n_slots) {
    return Failure{"ranges cover " + std::to_string(expected_lo) + " of " +
                       std::to_string(n_slots) + " slots",
                   {}};
  }
  return std::nullopt;
}

TEST(PropStore, ShardRangesTileTheSlotArray) {
  const auto report = check("shard_partition", shard_partition_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

// Query protocol v2: encode→parse is the identity on every field, and the
// parsers are total on truncations of valid payloads.
std::optional<Failure> protocol_roundtrip_property(Rng& rng) {
  core::QueryRequest req;
  req.request_id = rng.u64();
  req.epoch = static_cast<std::uint32_t>(rng.u64());
  req.policy = static_cast<core::ReturnPolicy>(rng.below(4));
  req.key = rng.bytes(1 + rng.below(39));  // empty keys are rejected by spec

  const auto req_wire = core::encode_query_request(req);
  const auto req_back = core::parse_query_request(req_wire);
  if (!req_back.has_value() || req_back->request_id != req.request_id ||
      req_back->epoch != req.epoch || req_back->policy != req.policy ||
      req_back->key != req.key) {
    return Failure{"request roundtrip mismatch", req_wire};
  }

  core::QueryResponse resp;
  resp.request_id = rng.u64();
  resp.epoch = static_cast<std::uint32_t>(rng.u64());
  resp.flags = rng.chance(0.3) ? core::kResponseDegraded : 0;
  resp.stale_epochs = static_cast<std::uint16_t>(rng.below(1 << 16));
  resp.outcome = rng.chance(0.5) ? core::QueryOutcome::kFound
                                 : core::QueryOutcome::kEmpty;
  resp.checksum_matches = static_cast<std::uint8_t>(rng.below(8));
  resp.distinct_values = static_cast<std::uint8_t>(rng.below(8));
  if (resp.outcome == core::QueryOutcome::kFound) {
    resp.value = rng.bytes(1 + rng.below(32));
  }
  const auto resp_wire = core::encode_query_response(resp);
  const auto resp_back = core::parse_query_response(resp_wire);
  if (!resp_back.has_value() || resp_back->request_id != resp.request_id ||
      resp_back->epoch != resp.epoch || resp_back->flags != resp.flags ||
      resp_back->stale_epochs != resp.stale_epochs ||
      resp_back->outcome != resp.outcome || resp_back->value != resp.value) {
    return Failure{"response roundtrip mismatch", resp_wire};
  }

  // Any strict truncation must parse to nullopt (never crash, never
  // misinterpret a prefix as a complete message).
  if (!req_wire.empty()) {
    const auto cut = rng.below(req_wire.size());
    if (core::parse_query_request({req_wire.data(), cut}).has_value()) {
      return Failure{"truncated request parsed at " + std::to_string(cut),
                     req_wire};
    }
  }
  if (!resp_wire.empty()) {
    const auto cut = rng.below(resp_wire.size());
    if (core::parse_query_response({resp_wire.data(), cut}).has_value()) {
      return Failure{"truncated response parsed at " + std::to_string(cut),
                     resp_wire};
    }
  }
  return std::nullopt;
}

TEST(PropStore, QueryProtocolRoundTripsAndRejectsTruncations) {
  const auto report =
      check("protocol_roundtrip", protocol_roundtrip_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

// Robustness of the ingest path: take a valid crafted WRITE report and
// corrupt it — flip one byte or truncate. The RNIC must either reject it
// (store untouched) or, when the flipped byte is outside every validated
// field, produce exactly the unmutated frame's effect. Nothing else.
std::optional<Failure> frame_mutation_property(Rng& rng) {
  const auto dep = golden_deployment();
  const auto& cfg = dep.config;
  core::ReportCrafter crafter(cfg);

  // The pristine run, for the "identical effect" arm.
  core::Collector pristine(cfg, 0, dep.collector_endpoint);
  const auto key = core::sim_key(gen_key(rng));
  const auto value = gen_value(rng, cfg.value_bytes);
  const auto n = static_cast<std::uint32_t>(rng.below(cfg.n_addresses));
  const auto tpl =
      crafter.make_write_template(pristine.remote_info(), dep.reporter);
  std::vector<std::byte> frame(tpl.frame_size());
  crafter.craft_write_into(tpl, key, value, n, /*psn=*/0, frame);
  pristine.rnic().process_frame(frame);

  auto mutated = frame;
  const bool truncate = rng.chance(0.3);
  if (truncate) {
    mutated.resize(rng.below(mutated.size()));
  } else {
    const auto pos = rng.below(mutated.size());
    const auto bit = rng.below(8);
    mutated[pos] ^= static_cast<std::byte>(1u << bit);
  }

  core::Collector subject(cfg, 0, dep.collector_endpoint);
  (void)subject.rnic().process_frame(mutated);
  const auto& c = subject.ingest_counters();

  if (truncate && c.executed.load() != 0) {
    return Failure{"truncated frame executed", mutated};
  }
  const auto mem = subject.store().memory();
  if (c.executed.load() == 0) {
    if (!std::all_of(mem.begin(), mem.end(),
                     [](std::byte b) { return b == std::byte{0}; })) {
      return Failure{"rejected frame mutated store memory", mutated};
    }
  } else {
    // Executed despite the flip: the byte must have been outside all
    // validated fields, so the memory effect is the pristine one.
    if (!std::ranges::equal(mem, pristine.store().memory())) {
      return Failure{"mutated frame executed with a different effect",
                     mutated};
    }
  }
  return std::nullopt;
}

TEST(PropStore, CorruptedFramesRejectOrMatchPristineEffect) {
  const auto report = check("frame_mutation", frame_mutation_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

}  // namespace
}  // namespace dart::check
