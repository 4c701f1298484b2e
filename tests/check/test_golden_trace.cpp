// Golden-trace replay: the committed fixtures under tests/golden/ must be
// byte-identical to what the reference crafters produce today, and feeding
// them through the real ingest path must reproduce the documented effects.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "check/golden.hpp"
#include "core/collector_ring.hpp"
#include "core/oracle.hpp"
#include "core/query_protocol.hpp"

namespace dart::check {
namespace {

std::string golden_dir() { return std::string(DART_SOURCE_DIR) + "/tests/golden"; }

std::map<std::string, Trace> committed_traces() {
  std::map<std::string, Trace> out;
  for (const auto& fresh : canonical_golden_traces()) {
    const auto t = read_trace_file(golden_dir() + "/" + fresh.name + ".hex");
    if (t.has_value()) out[t->name] = *t;
  }
  return out;
}

TEST(GoldenTrace, HexRoundTrip) {
  const std::vector<std::byte> bytes = {std::byte{0x00}, std::byte{0xde},
                                        std::byte{0xad}, std::byte{0xff}};
  EXPECT_EQ(to_hex(bytes), "00deadff");
  EXPECT_EQ(from_hex("00deadff"), bytes);
  EXPECT_EQ(from_hex("00 de AD ff"), bytes);  // spaces + upper ok
  EXPECT_EQ(from_hex("0"), std::nullopt);     // odd digits
  EXPECT_EQ(from_hex("zz"), std::nullopt);    // not hex
  EXPECT_EQ(from_hex("0 0"), std::nullopt);   // split pair
  EXPECT_TRUE(from_hex("")->empty());
}

TEST(GoldenTrace, CommittedFixturesAreByteIdentical) {
  const auto committed = committed_traces();
  for (const auto& fresh : canonical_golden_traces()) {
    const auto it = committed.find(fresh.name);
    ASSERT_NE(it, committed.end())
        << "missing fixture tests/golden/" << fresh.name
        << ".hex — regenerate: build/tools/dart_trace golden --out=tests/golden";
    const auto& artifacts = it->second.artifacts;
    ASSERT_EQ(artifacts.size(), fresh.artifacts.size()) << fresh.name;
    for (std::size_t i = 0; i < artifacts.size(); ++i) {
      ASSERT_EQ(artifacts[i].size(), fresh.artifacts[i].size())
          << fresh.name << " artifact " << i;
      for (std::size_t off = 0; off < artifacts[i].size(); ++off) {
        ASSERT_EQ(artifacts[i][off], fresh.artifacts[i][off])
            << fresh.name << " artifact " << i << " drifts at byte " << off;
      }
    }
  }
}

// Replaying write_reports through a fresh golden-deployment collector: the
// All 15 frames execute — collector QPs run PsnPolicy::kIgnore, so even the
// wrap-edge PSNs (0xfffffe, 0xffffff, 0x000000 after 12 sequential frames)
// land; reporters never retransmit and the store is last-writer-wins. Every
// written key then resolves to its golden value.
TEST(GoldenTrace, WriteReportsReplayPinsIngestSemantics) {
  const auto committed = committed_traces();
  const auto it = committed.find("write_reports");
  ASSERT_NE(it, committed.end());
  ASSERT_EQ(it->second.artifacts.size(), 15u);

  const auto dep = golden_deployment();
  core::Collector collector(dep.config, 0, dep.collector_endpoint);
  for (const auto& frame : it->second.artifacts) {
    collector.rnic().process_frame(frame);
  }
  const auto& c = collector.ingest_counters();
  EXPECT_EQ(c.frames.load(), 15u);
  EXPECT_EQ(c.executed.load(), 15u);
  EXPECT_EQ(c.psn_rejected.load(), 0u);

  for (std::uint64_t k = 1; k <= 6; ++k) {
    const auto result = collector.query(core::sim_key(k));
    ASSERT_EQ(result.outcome, core::QueryOutcome::kFound) << "key " << k;
    EXPECT_EQ(result.value, golden_value(k, dep.config.value_bytes));
    EXPECT_EQ(result.checksum_matches, 2u);
  }
  // Key 7 arrived only on the wrap-edge frames, copy 0 each time: one slot
  // holds it (thrice overwritten with the same bytes), copy 1 stayed empty.
  const auto k7 = collector.query(core::sim_key(7));
  ASSERT_EQ(k7.outcome, core::QueryOutcome::kFound);
  EXPECT_EQ(k7.value, golden_value(7, dep.config.value_bytes));
  EXPECT_EQ(k7.checksum_matches, 1u);
}

TEST(GoldenTrace, AtomicReportsReplayPinsAtomicSemantics) {
  const auto committed = committed_traces();
  const auto it = committed.find("atomic_reports");
  ASSERT_NE(it, committed.end());
  ASSERT_EQ(it->second.artifacts.size(), 5u);

  const auto dep = golden_deployment();
  core::Collector collector(dep.config, 0, dep.collector_endpoint);
  for (const auto& frame : it->second.artifacts) {
    collector.rnic().process_frame(frame);
  }
  const auto& c = collector.ingest_counters();
  EXPECT_EQ(c.fetch_adds.load(), 3u);
  EXPECT_EQ(c.compare_swaps.load(), 2u);
  EXPECT_EQ(c.cas_mismatches.load(), 0u);  // both CAS hit zeroed words

  const auto word_at = [&](std::uint64_t w) {
    std::uint64_t v;
    std::memcpy(&v, collector.store().memory().data() + w * 8, 8);
    return v;
  };
  // Values are host-endian in memory, per the RNIC's atomic semantics.
  for (const std::uint64_t w : {0ull, 5ull, 100ull}) {
    EXPECT_EQ(word_at(w), 0x0101'0000'0000'0000ull + w) << "word " << w;
  }
  for (const std::uint64_t w : {1ull, 7ull}) {
    EXPECT_EQ(word_at(w), 0xC0DE'0000'0000'0000ull + w) << "word " << w;
  }
}

TEST(GoldenTrace, MultiwriteReportsReplayFillsAllSlots) {
  const auto committed = committed_traces();
  const auto it = committed.find("multiwrite_reports");
  ASSERT_NE(it, committed.end());

  const auto dep = golden_deployment();
  core::Collector collector(dep.config, 0, dep.collector_endpoint);
  collector.rnic().set_dta_multiwrite(true);
  for (const auto& frame : it->second.artifacts) {
    collector.rnic().process_frame(frame);
  }
  EXPECT_EQ(collector.ingest_counters().multiwrite_frames.load(), 4u);
  for (std::uint64_t k = 1; k <= 4; ++k) {
    const auto result = collector.query(core::sim_key(k));
    ASSERT_EQ(result.outcome, core::QueryOutcome::kFound) << "key " << k;
    EXPECT_EQ(result.value, golden_value(k, dep.config.value_bytes));
    EXPECT_EQ(result.checksum_matches, dep.config.n_addresses);
  }
}

TEST(GoldenTrace, QueryWirePayloadsParseBack) {
  const auto committed = committed_traces();
  const auto it = committed.find("query_wire");
  ASSERT_NE(it, committed.end());
  ASSERT_EQ(it->second.artifacts.size(), 7u);

  // First four artifacts: requests, one per return policy, ids 1..4.
  const core::ReturnPolicy policies[] = {
      core::ReturnPolicy::kFirstMatch, core::ReturnPolicy::kSingleDistinct,
      core::ReturnPolicy::kPlurality, core::ReturnPolicy::kConsensusTwo};
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const auto req = core::parse_query_request(it->second.artifacts[id - 1]);
    ASSERT_TRUE(req.has_value()) << "request " << id;
    EXPECT_EQ(req->request_id, id);
    EXPECT_EQ(req->epoch, 0xE0000u + id);
    EXPECT_EQ(req->policy, policies[id - 1]);
    const auto key = core::sim_key(id);
    EXPECT_TRUE(std::equal(req->key.begin(), req->key.end(), key.begin(),
                           key.end()));
  }
  // Then: found, empty, degraded responses.
  const auto found = core::parse_query_response(it->second.artifacts[4]);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->outcome, core::QueryOutcome::kFound);
  EXPECT_EQ(found->epoch, 0xE0001u);
  EXPECT_FALSE(found->degraded());

  const auto empty = core::parse_query_response(it->second.artifacts[5]);
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->outcome, core::QueryOutcome::kEmpty);

  const auto degraded = core::parse_query_response(it->second.artifacts[6]);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_TRUE(degraded->degraded());
  EXPECT_EQ(degraded->stale_epochs, 2u);
}

// --- DTA primitive traces ----------------------------------------------------

TEST(GoldenTrace, AppendReportsReplayPinsRingSemantics) {
  const auto committed = committed_traces();
  const auto it = committed.find("append_reports");
  ASSERT_NE(it, committed.end());
  ASSERT_EQ(it->second.artifacts.size(), 5u);

  const auto dep = golden_deployment();
  const auto prim = core::default_primitives(dep.config.master_seed);
  core::Collector collector(dep.config, 0, dep.collector_endpoint);
  ASSERT_TRUE(collector.enable_primitives(prim).ok());
  for (const auto& frame : it->second.artifacts) {
    collector.rnic().process_frame(frame);
  }
  EXPECT_EQ(collector.ingest_counters().executed.load(), 5u);

  // Seqs 1..4 then 1025: the wrap frame landed on slot 0, overwriting seq 1.
  const auto d = collector.ring().drain();
  ASSERT_EQ(d.entries.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(d.entries[i].seq, i + 2);
    EXPECT_EQ(d.entries[i].value,
              golden_value(i + 2, prim.ring.value_bytes));
  }
  EXPECT_EQ(d.entries[3].seq, 1025u);
  EXPECT_EQ(d.entries[3].value, golden_value(9, prim.ring.value_bytes));
  // Holes: seq 1 (lapped) plus seqs 5..1024 this trace never sent.
  EXPECT_EQ(d.missed, 1021u);
  EXPECT_EQ(d.next_seq, 1026u);
}

TEST(GoldenTrace, KeyIncrementReportsReplayAggregates) {
  const auto committed = committed_traces();
  const auto it = committed.find("key_increment_reports");
  ASSERT_NE(it, committed.end());
  ASSERT_EQ(it->second.artifacts.size(), 3u);

  const auto dep = golden_deployment();
  const auto prim = core::default_primitives(dep.config.master_seed);
  core::Collector collector(dep.config, 0, dep.collector_endpoint);
  ASSERT_TRUE(collector.enable_primitives(prim).ok());
  for (const auto& frame : it->second.artifacts) {
    collector.rnic().process_frame(frame);
  }
  EXPECT_EQ(collector.ingest_counters().fetch_adds.load(), 3u);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(collector.counters().estimate(core::sim_key(k)), 0x10101ull * k)
        << "key " << k;
  }
}

// The sketch fan-out on the wire: every row's FETCH_ADD of sim_key(1..3)
// lands in a fresh sketch collector, so each key's count-min estimate is
// its delta, and the switch's template path crafts each committed frame
// byte for byte from the same (key, row, delta, PSN).
TEST(GoldenTrace, SketchIncrementReportsReplayEstimatesEveryKey) {
  const auto committed = committed_traces();
  const auto it = committed.find("sketch_increment_reports");
  ASSERT_NE(it, committed.end());
  const core::StoreBackendConfig choice{core::StoreBackendKind::kSketch, {}};
  const auto& sketch = choice.sketch;
  ASSERT_EQ(it->second.artifacts.size(), 3u * sketch.rows);

  const auto dep = golden_deployment();
  core::Collector collector(dep.config, 0, dep.collector_endpoint, choice);
  for (const auto& frame : it->second.artifacts) {
    collector.rnic().process_frame(frame);
  }
  EXPECT_EQ(collector.ingest_counters().fetch_adds.load(), 3u * sketch.rows);
  EXPECT_EQ(collector.ingest_counters().executed.load(), 3u * sketch.rows);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(collector.sketch().estimate(core::sim_key(k)), 0x10101ull * k)
        << "key " << k;
  }

  const core::ReportCrafter crafter(dep.config);
  const auto tpl = crafter.make_atomic_template(
      collector.remote_info(), dep.reporter, rdma::Opcode::kRcFetchAdd);
  std::vector<std::byte> frame(tpl.frame_size());
  std::uint32_t psn = 0;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    for (std::uint32_t row = 0; row < sketch.rows; ++row, ++psn) {
      ASSERT_EQ(crafter.craft_sketch_increment_into(
                    tpl, collector.sketch().geometry(), core::sim_key(k), row,
                    0x10101ull * k, psn, frame),
                frame.size());
      EXPECT_EQ(frame, it->second.artifacts[psn])
          << "key " << k << " row " << row;
    }
  }
}

TEST(GoldenTrace, PostcardReportsReplayAssemblePartialGroups) {
  const auto committed = committed_traces();
  const auto it = committed.find("postcard_reports");
  ASSERT_NE(it, committed.end());
  ASSERT_EQ(it->second.artifacts.size(), 6u);

  const auto dep = golden_deployment();
  const auto prim = core::default_primitives(dep.config.master_seed);
  // The fixture assumes the two golden flows land in distinct groups.
  ASSERT_NE(prim.postcards.group_of(core::sim_key(1)),
            prim.postcards.group_of(core::sim_key(2)));
  core::Collector collector(dep.config, 0, dep.collector_endpoint);
  ASSERT_TRUE(collector.enable_primitives(prim).ok());
  for (const auto& frame : it->second.artifacts) {
    collector.rnic().process_frame(frame);
  }
  for (std::uint64_t flow = 1; flow <= 2; ++flow) {
    const auto view = collector.postcards().read_group(core::sim_key(flow));
    EXPECT_EQ(view.valid_mask, 0b111u) << "flow " << flow;  // hops 0..2 of 8
    for (std::uint32_t hop = 0; hop < 3; ++hop) {
      EXPECT_EQ(view.hops[hop],
                golden_value(flow * 8 + hop, prim.postcards.value_bytes))
          << "flow " << flow << " hop " << hop;
    }
  }
}

TEST(GoldenTrace, PrimitiveQueryWirePayloadsParseBack) {
  const auto committed = committed_traces();
  const auto it = committed.find("primitive_query_wire");
  ASSERT_NE(it, committed.end());
  ASSERT_EQ(it->second.artifacts.size(), 7u);

  const auto dep = golden_deployment();
  const auto prim = core::default_primitives(dep.config.master_seed);

  const auto drain = core::parse_primitive_request(it->second.artifacts[0]);
  ASSERT_TRUE(drain.has_value());
  EXPECT_EQ(drain->op, core::PrimitiveOp::kDrainRing);
  EXPECT_EQ(drain->request_id, 1u);
  EXPECT_EQ(drain->epoch, 0xE1001u);
  EXPECT_EQ(drain->max_entries, 16u);
  EXPECT_TRUE(drain->key.empty());

  const auto counter = core::parse_primitive_request(it->second.artifacts[1]);
  ASSERT_TRUE(counter.has_value());
  EXPECT_EQ(counter->op, core::PrimitiveOp::kReadCounter);
  const auto ckey = core::sim_key(2);
  EXPECT_TRUE(std::equal(counter->key.begin(), counter->key.end(),
                         ckey.begin(), ckey.end()));

  const auto group = core::parse_primitive_request(it->second.artifacts[2]);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->op, core::PrimitiveOp::kReadPostcardGroup);

  const auto drained = core::parse_primitive_response(it->second.artifacts[3]);
  ASSERT_TRUE(drained.has_value());
  EXPECT_FALSE(drained->unavailable());
  EXPECT_EQ(drained->missed, 3u);
  EXPECT_EQ(drained->next_seq, 7u);
  ASSERT_EQ(drained->entries.size(), 2u);
  EXPECT_EQ(drained->entries[0].seq, 4u);
  EXPECT_EQ(drained->entries[1].seq, 6u);
  EXPECT_EQ(drained->entries[1].value,
            golden_value(6, prim.ring.value_bytes));

  const auto cell = core::parse_primitive_response(it->second.artifacts[4]);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->cell_index, prim.counters.index_of(ckey));
  EXPECT_EQ(cell->counter_value, 0x20202u);

  const auto path = core::parse_primitive_response(it->second.artifacts[5]);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->group_index, prim.postcards.group_of(core::sim_key(3)));
  EXPECT_EQ(path->max_hops, prim.postcards.max_hops);
  EXPECT_EQ(path->valid_mask, 0b101u);
  ASSERT_EQ(path->hops.size(), prim.postcards.max_hops);

  const auto unavailable =
      core::parse_primitive_response(it->second.artifacts[6]);
  ASSERT_TRUE(unavailable.has_value());
  EXPECT_TRUE(unavailable->unavailable());
  EXPECT_EQ(unavailable->request_id, 4u);
  EXPECT_EQ(unavailable->epoch, 0xE1004u);
}

// --- consistent-hash ring fixture --------------------------------------------

// The cht_ring16 fixture pins the 16-collector consistent-hash mapping: a
// freshly constructed ring must reproduce the committed owner table byte
// for byte (any drift silently re-shards a deployed fleet), the committed
// single-leave table must differ ONLY on the removed member's buckets, and
// the committed re-admit table must equal the full-membership one exactly.
TEST(GoldenTrace, ChtRing16ReplayPinsMappingAndMinimalMovement) {
  const auto committed = committed_traces();
  const auto it = committed.find("cht_ring16");
  ASSERT_NE(it, committed.end())
      << "missing fixture tests/golden/cht_ring16.hex — regenerate: "
         "build/tools/dart_trace golden --out=tests/golden";
  ASSERT_EQ(it->second.artifacts.size(), 3u);

  const auto dep = golden_deployment();
  core::CollectorRingConfig rc;
  rc.capacity = 16;
  rc.height_per_member = 64;
  rc.seed = dep.config.master_seed;
  const core::CollectorRing ring(rc);

  const auto decode = [](const std::vector<std::byte>& bytes) {
    std::vector<std::uint32_t> table(bytes.size() / 4);
    for (std::size_t b = 0; b < table.size(); ++b) {
      table[b] = static_cast<std::uint32_t>(bytes[b * 4 + 0]) |
                 (static_cast<std::uint32_t>(bytes[b * 4 + 1]) << 8) |
                 (static_cast<std::uint32_t>(bytes[b * 4 + 2]) << 16) |
                 (static_cast<std::uint32_t>(bytes[b * 4 + 3]) << 24);
    }
    return table;
  };
  const auto full = decode(it->second.artifacts[0]);
  const auto without5 = decode(it->second.artifacts[1]);
  const auto restored = decode(it->second.artifacts[2]);

  // Today's construction reproduces the committed full-membership mapping.
  ASSERT_EQ(full.size(), ring.height());
  EXPECT_EQ(full, ring.owner_table());

  // Minimal movement, as committed: only member 5's buckets moved, each to
  // a live survivor, and the movement is bounded by 2·K/N.
  ASSERT_EQ(without5.size(), full.size());
  std::size_t moved = 0;
  for (std::size_t b = 0; b < full.size(); ++b) {
    if (full[b] == 5u) {
      EXPECT_NE(without5[b], 5u) << b;
      EXPECT_LT(without5[b], 16u) << b;
      ++moved;
    } else {
      EXPECT_EQ(without5[b], full[b]) << "bucket " << b << " moved needlessly";
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LE(moved, 2 * full.size() / 16);

  // Re-admit restores the full-membership table bit-for-bit.
  EXPECT_EQ(restored, full);
}

}  // namespace
}  // namespace dart::check
