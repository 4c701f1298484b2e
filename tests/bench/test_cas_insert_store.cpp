// Tests for §7's CAS-insert store (bench/cas_insert_store.hpp), the
// write + Compare & Swap insertion behind bench/ablation_cas.
#include "cas_insert_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cstring>
#include <thread>

#include "core/oracle.hpp"
#include "core/query.hpp"

namespace dart::core {
namespace {

DartConfig config(std::uint64_t slots = 1 << 12) {
  DartConfig cfg;
  cfg.n_slots = slots;
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 8;
  cfg.master_seed = 31;
  return cfg;
}

std::vector<std::byte> value_of(std::uint64_t v) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

TEST(CasInsertStore, FillsBothSlotsWhenEmpty) {
  DartStore store(config());
  CasInsertStore cas(store);
  cas.write(sim_key(1), value_of(7));
  EXPECT_EQ(cas.cas_attempts(), 1u);
  EXPECT_EQ(cas.cas_successes(), 1u);
  const QueryEngine q(store);
  const auto r = q.resolve(sim_key(1), ReturnPolicy::kConsensusTwo);
  EXPECT_EQ(r.outcome, QueryOutcome::kFound);  // both copies present
}

TEST(CasInsertStore, SecondSlotProtectedFromLaterKeys) {
  // Key A fills both slots; key B whose copy-1 collides with A's copy-1
  // must NOT overwrite it (CAS fails on non-empty), unlike plain writes.
  DartConfig tiny = config(/*slots=*/8);  // force collisions
  DartStore store(tiny);
  CasInsertStore cas(store);

  // Find two keys whose copy-1 slots collide but copy-0 slots differ.
  std::uint64_t a = 0, b = 0;
  bool found = false;
  for (std::uint64_t i = 0; i < 64 && !found; ++i) {
    for (std::uint64_t j = i + 1; j < 64 && !found; ++j) {
      if (store.slot_index(sim_key(i), 1) == store.slot_index(sim_key(j), 1) &&
          store.slot_index(sim_key(i), 0) != store.slot_index(sim_key(j), 0) &&
          store.slot_index(sim_key(i), 0) != store.slot_index(sim_key(j), 1) &&
          store.slot_index(sim_key(i), 1) != store.slot_index(sim_key(j), 0) &&
          store.slot_index(sim_key(i), 0) != store.slot_index(sim_key(i), 1) &&
          store.slot_index(sim_key(j), 0) != store.slot_index(sim_key(j), 1)) {
        a = i;
        b = j;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);

  cas.write(sim_key(a), value_of(0xA));
  cas.write(sim_key(b), value_of(0xB));
  EXPECT_EQ(cas.cas_successes(), 1u);  // B's CAS lost

  // A's copy-1 data survived B.
  const auto slot = store.read_slot(store.slot_index(sim_key(a), 1));
  EXPECT_EQ(slot.checksum, store.key_checksum(sim_key(a)));
}

// Regression for the check-then-write race: several threads race their CAS
// for ONE empty copy-1 slot; exactly one claim may win. The original
// implementation checked slot_empty() and then wrote, so concurrent writers
// could all observe "empty" and all count a success. Run under TSan via the
// tier-1 sanitizer matrix (tools/check_sanitize.sh).
TEST(CasInsertStore, ConcurrentClaimsResolveToOneWinner) {
  DartConfig tiny = config(/*slots=*/64);
  constexpr std::size_t kContenders = 4;
  constexpr int kRounds = 50;

  // Contender keys: all share one copy-1 slot; every other slot index
  // involved (each key's copy-0, across all keys) is pairwise distinct from
  // the others and from the contended slot, so only the CAS path is ever
  // contended (copy-0 writes stay single-writer).
  const DartStore probe(tiny);
  std::vector<std::uint64_t> contenders;
  std::uint64_t target_slot = 0;
  for (std::uint64_t anchor = 0; anchor < 512 && contenders.empty(); ++anchor) {
    std::vector<std::uint64_t> group{anchor};
    std::vector<std::uint64_t> used{probe.slot_index(sim_key(anchor), 0)};
    const std::uint64_t shared = probe.slot_index(sim_key(anchor), 1);
    if (used[0] == shared) continue;
    for (std::uint64_t k = anchor + 1; k < 4096 && group.size() < kContenders;
         ++k) {
      if (probe.slot_index(sim_key(k), 1) != shared) continue;
      const std::uint64_t copy0 = probe.slot_index(sim_key(k), 0);
      if (copy0 == shared ||
          std::find(used.begin(), used.end(), copy0) != used.end()) {
        continue;
      }
      group.push_back(k);
      used.push_back(copy0);
    }
    if (group.size() == kContenders) {
      contenders = group;
      target_slot = shared;
    }
  }
  ASSERT_EQ(contenders.size(), kContenders);

  for (int round = 0; round < kRounds; ++round) {
    DartStore store(tiny);
    CasInsertStore cas(store);
    std::barrier gate(kContenders);
    std::vector<std::thread> threads;
    threads.reserve(kContenders);
    for (std::size_t t = 0; t < kContenders; ++t) {
      threads.emplace_back([&, t] {
        gate.arrive_and_wait();  // maximize overlap at the claim
        cas.write(sim_key(contenders[t]), value_of(0x100 + t));
      });
    }
    for (auto& th : threads) th.join();

    EXPECT_EQ(cas.cas_attempts(), kContenders);
    ASSERT_EQ(cas.cas_successes(), 1u) << "round " << round;
    // The contended slot holds the winner's full payload, untorn: its
    // checksum identifies exactly one contender and the value is that
    // contender's, not a mix.
    const auto slot = store.read_slot(target_slot);
    int matches = 0;
    for (std::size_t t = 0; t < kContenders; ++t) {
      if (slot.checksum != store.key_checksum(sim_key(contenders[t]))) continue;
      ++matches;
      const auto expect = value_of(0x100 + t);
      EXPECT_TRUE(std::memcmp(slot.value.data(), expect.data(), 8) == 0);
    }
    EXPECT_EQ(matches, 1) << "round " << round;
  }
}

TEST(CasInsertStore, SlotEmptyDetection) {
  DartStore store(config());
  CasInsertStore cas(store);
  EXPECT_TRUE(cas.slot_empty(0));
  cas.write(sim_key(9), value_of(1));
  EXPECT_FALSE(cas.slot_empty(store.slot_index(sim_key(9), 0)));
}

TEST(CasInsertStore, ImprovesQueryabilityOverPlainWritesAtHighLoad) {
  // The §7 claim: write+CAS "can potentially improve queryability" — check
  // it does, with ground truth, at a load where churn matters.
  const std::uint64_t kKeys = 6000;
  DartConfig cfg = config(1 << 12);  // α ≈ 1.46

  DartStore plain_store(cfg);
  DartStore cas_store(cfg);
  CasInsertStore cas(cas_store);
  Oracle plain_oracle, cas_oracle;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    plain_store.write(sim_key(i), value_of(i));
    cas.write(sim_key(i), value_of(i));
    plain_oracle.record(i, value_of(i));
    cas_oracle.record(i, value_of(i));
  }
  const QueryEngine pq(plain_store);
  const QueryEngine cq(cas_store);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    (void)plain_oracle.classify(i, pq.resolve(sim_key(i)));
    (void)cas_oracle.classify(i, cq.resolve(sim_key(i)));
  }
  EXPECT_GT(cas_oracle.counts().success_rate(),
            plain_oracle.counts().success_rate());
}

}  // namespace
}  // namespace dart::core
