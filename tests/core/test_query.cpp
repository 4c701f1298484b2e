// Tests for the query engine's return policies (§3.2, §4).
#include "core/query.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "core/oracle.hpp"

namespace dart::core {
namespace {

DartConfig config(std::uint32_t n, std::uint64_t slots = 1 << 16) {
  DartConfig cfg;
  cfg.n_slots = slots;
  cfg.n_addresses = n;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 8;
  cfg.master_seed = 3;
  return cfg;
}

std::vector<std::byte> value_of(std::uint64_t v) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

// Writes a forged slot: the checksum of `key` but an arbitrary value — the
// collision scenarios §4 analyzes, constructed deterministically.
void forge_slot(DartStore& store, std::span<const std::byte> key,
                std::uint32_t n, std::uint64_t forged_value) {
  const auto idx = store.slot_index(key, n);
  const auto csum = store.key_checksum(key);
  auto* slot = store.memory().data() + store.slot_offset(idx);
  std::memcpy(slot, &csum, 4);
  std::memcpy(slot + 4, &forged_value, 8);
}

// Overwrites slot n of `key` with a non-matching checksum (an unrelated key
// landed there).
void clobber_slot(DartStore& store, std::span<const std::byte> key,
                  std::uint32_t n) {
  const auto idx = store.slot_index(key, n);
  const std::uint32_t other = ~store.key_checksum(key);
  auto* slot = store.memory().data() + store.slot_offset(idx);
  std::memcpy(slot, &other, 4);
}

TEST(QueryEngine, FreshKeyFoundByAllPolicies) {
  DartStore store(config(2));
  store.write(sim_key(1), value_of(0x11));
  const QueryEngine q(store);
  for (const auto policy :
       {ReturnPolicy::kFirstMatch, ReturnPolicy::kSingleDistinct,
        ReturnPolicy::kPlurality, ReturnPolicy::kConsensusTwo}) {
    const auto r = q.resolve(sim_key(1), policy);
    ASSERT_EQ(r.outcome, QueryOutcome::kFound) << to_string(policy);
    std::uint64_t got;
    std::memcpy(&got, r.value.data(), 8);
    EXPECT_EQ(got, 0x11u);
    EXPECT_EQ(r.checksum_matches, 2u);
    EXPECT_EQ(r.distinct_values, 1u);
  }
}

TEST(QueryEngine, UnwrittenKeyIsEmpty) {
  DartStore store(config(2));
  const QueryEngine q(store);
  const auto r = q.resolve(sim_key(999));
  EXPECT_EQ(r.outcome, QueryOutcome::kEmpty);
  EXPECT_EQ(r.checksum_matches, 0u);
}

TEST(QueryEngine, AllSlotsClobberedIsEmpty) {
  DartStore store(config(2));
  const auto key = sim_key(5);
  store.write(key, value_of(1));
  clobber_slot(store, key, 0);
  clobber_slot(store, key, 1);
  const QueryEngine q(store);
  EXPECT_EQ(q.resolve(key).outcome, QueryOutcome::kEmpty);
}

TEST(QueryEngine, OneSurvivorStillFound) {
  DartStore store(config(4));
  const auto key = sim_key(6);
  store.write(key, value_of(0x66));
  clobber_slot(store, key, 0);
  clobber_slot(store, key, 2);
  clobber_slot(store, key, 3);
  const QueryEngine q(store);
  const auto r = q.resolve(key, ReturnPolicy::kPlurality);
  ASSERT_EQ(r.outcome, QueryOutcome::kFound);
  EXPECT_EQ(r.checksum_matches, 1u);
}

TEST(QueryEngine, SingleDistinctRefusesAmbiguity) {
  DartStore store(config(2));
  const auto key = sim_key(7);
  store.write(key, value_of(0x77));
  forge_slot(store, key, 1, 0xBAD);  // same checksum, different value
  const QueryEngine q(store);
  const auto r = q.resolve(key, ReturnPolicy::kSingleDistinct);
  EXPECT_EQ(r.outcome, QueryOutcome::kEmpty);  // ambiguous → empty return
  EXPECT_EQ(r.distinct_values, 2u);
}

TEST(QueryEngine, PluralityBreaksTies) {
  DartStore store(config(3));
  const auto key = sim_key(8);
  store.write(key, value_of(0x88));     // 3 copies of 0x88
  forge_slot(store, key, 0, 0xBAD);     // now 2×0x88, 1×BAD
  const QueryEngine q(store);
  const auto r = q.resolve(key, ReturnPolicy::kPlurality);
  ASSERT_EQ(r.outcome, QueryOutcome::kFound);
  std::uint64_t got;
  std::memcpy(&got, r.value.data(), 8);
  EXPECT_EQ(got, 0x88u);
}

TEST(QueryEngine, PluralityTieIsEmpty) {
  DartStore store(config(2));
  const auto key = sim_key(9);
  store.write(key, value_of(0x99));
  forge_slot(store, key, 1, 0xBAD);  // 1 vs 1 tie
  const QueryEngine q(store);
  EXPECT_EQ(q.resolve(key, ReturnPolicy::kPlurality).outcome,
            QueryOutcome::kEmpty);
}

TEST(QueryEngine, ConsensusTwoNeedsTwoCopies) {
  DartStore store(config(4));
  const auto key = sim_key(10);
  store.write(key, value_of(0xAA));
  // Clobber all but one copy: plurality would return it, consensus-2 won't.
  clobber_slot(store, key, 0);
  clobber_slot(store, key, 1);
  clobber_slot(store, key, 2);
  const QueryEngine q(store);
  EXPECT_EQ(q.resolve(key, ReturnPolicy::kPlurality).outcome,
            QueryOutcome::kFound);
  EXPECT_EQ(q.resolve(key, ReturnPolicy::kConsensusTwo).outcome,
            QueryOutcome::kEmpty);
}

TEST(QueryEngine, ConsensusTwoAcceptsDoubleValue) {
  DartStore store(config(4));
  const auto key = sim_key(11);
  store.write(key, value_of(0xBB));
  clobber_slot(store, key, 0);
  clobber_slot(store, key, 1);
  // Two surviving copies of 0xBB remain.
  const QueryEngine q(store);
  const auto r = q.resolve(key, ReturnPolicy::kConsensusTwo);
  ASSERT_EQ(r.outcome, QueryOutcome::kFound);
  EXPECT_EQ(r.checksum_matches, 2u);
}

TEST(QueryEngine, FirstMatchReturnsForgedValueOnErrorPath) {
  // The return-error case of §4: all originals overwritten, one forged slot
  // matches the checksum — first-match happily returns the wrong value; the
  // oracle classifies it as a return error.
  DartStore store(config(2));
  const auto key = sim_key(12);
  Oracle oracle;
  store.write(key, value_of(0xCC));
  oracle.record(12, value_of(0xCC));
  forge_slot(store, key, 0, 0xBAD);
  clobber_slot(store, key, 1);

  const QueryEngine q(store);
  const auto r = q.resolve(key, ReturnPolicy::kFirstMatch);
  ASSERT_EQ(r.outcome, QueryOutcome::kFound);
  EXPECT_EQ(oracle.classify(12, r), Verdict::kReturnError);
  EXPECT_EQ(oracle.counts().error, 1u);
}

TEST(QueryEngine, DefaultPolicyIsConfigurable) {
  DartStore store(config(2));
  const QueryEngine q(store, ReturnPolicy::kConsensusTwo);
  EXPECT_EQ(q.default_policy(), ReturnPolicy::kConsensusTwo);
}

TEST(QueryEngine, PolicyNames) {
  EXPECT_STREQ(to_string(ReturnPolicy::kFirstMatch), "first-match");
  EXPECT_STREQ(to_string(ReturnPolicy::kSingleDistinct), "single-distinct");
  EXPECT_STREQ(to_string(ReturnPolicy::kPlurality), "plurality");
  EXPECT_STREQ(to_string(ReturnPolicy::kConsensusTwo), "consensus-2");
}

// §4's per-query policy choice: the same store state can answer one query
// strictly and another leniently.
TEST(QueryEngine, PerQueryPolicyChoice) {
  DartStore store(config(4));
  const auto key = sim_key(13);
  store.write(key, value_of(0xDD));
  clobber_slot(store, key, 0);
  clobber_slot(store, key, 1);
  clobber_slot(store, key, 2);
  const QueryEngine q(store, ReturnPolicy::kPlurality);
  EXPECT_EQ(q.resolve(key).outcome, QueryOutcome::kFound);
  EXPECT_EQ(q.resolve(key, ReturnPolicy::kConsensusTwo).outcome,
            QueryOutcome::kEmpty);
}

// Property sweep: structural invariants of resolve() across N and policies,
// on stores filled at moderate load (real collisions present).
// gtest prints a QuerySweepCase as its raw bytes and ctest names each case
// after that dump, so the struct has no padding: `label` fills the three
// bytes after `policy`, which were otherwise uninitialised and made the case
// names change whenever an unrelated change moved memory around. The label
// values are arbitrary; they are fixed so that the listed names stay the
// same from build to build. The test body never reads them.
struct QuerySweepCase {
  std::uint32_t n;
  ReturnPolicy policy;
  std::array<std::uint8_t, 3> label;
};
static_assert(sizeof(QuerySweepCase) == 8,
              "QuerySweepCase must have no padding");

class QueryInvariants : public ::testing::TestWithParam<QuerySweepCase> {};

TEST_P(QueryInvariants, StructuralInvariantsHold) {
  const auto param = GetParam();
  DartConfig cfg;
  cfg.n_slots = 1 << 12;
  cfg.n_addresses = param.n;
  cfg.checksum_bits = 8;  // collisions visible
  cfg.value_bytes = 8;
  cfg.master_seed = 0x1A7;
  DartStore store(cfg);
  const auto keys = cfg.n_slots;  // α = 1
  for (std::uint64_t i = 0; i < keys; ++i) {
    store.write(sim_key(i), value_of(i));
  }
  const QueryEngine q(store);
  for (std::uint64_t i = 0; i < keys; i += 7) {
    const auto r = q.resolve(sim_key(i), param.policy);
    ASSERT_LE(r.checksum_matches, param.n);
    ASSERT_LE(r.distinct_values, r.checksum_matches);
    if (r.outcome == QueryOutcome::kFound) {
      ASSERT_EQ(r.value.size(), cfg.value_bytes);
      // The returned value must literally exist in one of the key's slots
      // with a matching checksum (no fabrication).
      bool present = false;
      for (const auto& slot : store.read_slots(sim_key(i))) {
        if (slot.checksum == store.key_checksum(sim_key(i)) &&
            std::equal(r.value.begin(), r.value.end(), slot.value.begin())) {
          present = true;
        }
      }
      ASSERT_TRUE(present);
      if (param.policy == ReturnPolicy::kSingleDistinct) {
        ASSERT_EQ(r.distinct_values, 1u);
      }
      if (param.policy == ReturnPolicy::kConsensusTwo) {
        // Winner appeared at least twice among the matches.
        ASSERT_GE(r.checksum_matches, 2u);
      }
    } else {
      ASSERT_TRUE(r.value.empty());
      if (param.policy == ReturnPolicy::kFirstMatch) {
        ASSERT_EQ(r.checksum_matches, 0u);  // first-match only misses on zero
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueryInvariants,
    ::testing::Values(
        QuerySweepCase{1, ReturnPolicy::kFirstMatch, {0x00, 0x00, 0x00}},
        QuerySweepCase{2, ReturnPolicy::kPlurality, {0x00, 0x00, 0x00}},
        QuerySweepCase{2, ReturnPolicy::kConsensusTwo, {0x00, 0x00, 0x00}},
        QuerySweepCase{4, ReturnPolicy::kSingleDistinct, {0x00, 0x00, 0x00}},
        QuerySweepCase{4, ReturnPolicy::kPlurality, {0x1E, 0x09, 0x00}},
        QuerySweepCase{8, ReturnPolicy::kPlurality, {0x00, 0xC0, 0xCA}},
        QuerySweepCase{8, ReturnPolicy::kConsensusTwo, {0x00, 0xD0, 0xCA}}));

}  // namespace
}  // namespace dart::core
