// The flagship differential property: random op streams through the REAL
// wire path (ReportCrafter frames → SimulatedRnic validation → DMA into
// registered memory) must leave byte-identical store state — and identical
// query answers — to the single-threaded reference oracle applying the same
// logical ops directly. 1000 seeded cases; failures shrink to a minimal op
// stream and print a DART_SEED repro line.
#include <gtest/gtest.h>

#include <algorithm>

#include "check/gen.hpp"
#include "check/golden.hpp"
#include "check/property.hpp"
#include "check/reference.hpp"
#include "core/oracle.hpp"

namespace dart::check {
namespace {

constexpr core::ReturnPolicy kPolicies[] = {
    core::ReturnPolicy::kFirstMatch, core::ReturnPolicy::kSingleDistinct,
    core::ReturnPolicy::kPlurality, core::ReturnPolicy::kConsensusTwo};

std::optional<Failure> wire_diff_property(Rng& rng) {
  const auto cfg = gen_small_config(rng);
  WireDriver real(cfg);
  ReferenceFabric reference(cfg);

  std::uint64_t submitted = 0;
  const auto n_ops = 1 + rng.below(12);
  for (std::uint64_t i = 0; i < n_ops; ++i) {
    const auto op = gen_report_op(rng, cfg, &reference);
    const auto frame = real.submit(op);
    reference.apply(op);
    submitted += op.dropped ? 0 : 1;

    // Byte-identical store memory after every op, not just at the end —
    // divergence is pinned to the op that caused it.
    if (!std::ranges::equal(real.memory(), reference.memory())) {
      const auto real_mem = real.memory();
      const auto ref_mem = reference.memory();
      std::size_t off = 0;
      while (off < real_mem.size() && real_mem[off] == ref_mem[off]) ++off;
      return Failure{"store byte " + std::to_string(off) +
                         " diverged after op " + std::to_string(i) + "/" +
                         std::to_string(n_ops) + ": real 0x" +
                         to_hex({&real_mem[off], 1}) + " reference 0x" +
                         to_hex({&ref_mem[off], 1}),
                     frame};
    }
  }

  // Conservation: every non-dropped op executed exactly once, none were
  // rejected by validation, and CAS-miss accounting agrees.
  const auto& c = real.collector().ingest_counters();
  if (c.executed.load() != submitted) {
    return Failure{"executed " + std::to_string(c.executed.load()) +
                       " ops, submitted " + std::to_string(submitted),
                   {}};
  }
  if (c.psn_rejected.load() != 0 || c.bad_icrc.load() != 0 ||
      c.bad_opcode.load() != 0 || c.out_of_bounds.load() != 0 ||
      c.unaligned_atomic.load() != 0) {
    return Failure{"valid crafted frames were rejected by validation", {}};
  }
  if (c.cas_mismatches.load() != reference.cas_mismatches()) {
    return Failure{"cas_mismatches: real " +
                       std::to_string(c.cas_mismatches.load()) +
                       " reference " +
                       std::to_string(reference.cas_mismatches()),
                   {}};
  }

  // Query plane: QueryEngine over RNIC-written memory vs the from-scratch
  // policy implementation over the oracle store, for every policy.
  for (int q = 0; q < 5; ++q) {
    const auto key = core::sim_key(gen_key(rng));
    for (const auto policy : kPolicies) {
      const auto real_r = real.query(key, policy);
      const auto ref_r = reference.resolve(key, policy);
      if (real_r.outcome != ref_r.outcome || real_r.value != ref_r.value ||
          real_r.checksum_matches != ref_r.checksum_matches ||
          real_r.distinct_values != ref_r.distinct_values) {
        return Failure{std::string("query diverged under policy ") +
                           core::to_string(policy) + ": real{" +
                           (real_r.outcome == core::QueryOutcome::kFound
                                ? "found "
                                : "empty ") +
                           to_hex(real_r.value) + " m" +
                           std::to_string(real_r.checksum_matches) + " d" +
                           std::to_string(real_r.distinct_values) +
                           "} reference{" +
                           (ref_r.outcome == core::QueryOutcome::kFound
                                ? "found "
                                : "empty ") +
                           to_hex(ref_r.value) + " m" +
                           std::to_string(ref_r.checksum_matches) + " d" +
                           std::to_string(ref_r.distinct_values) + "}",
                       {}};
      }
    }
  }
  return std::nullopt;
}

TEST(PropWire, OpStreamsMatchReferenceFabric) {
  const auto report = check("wire_op_diff", wire_diff_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

// Template path vs the field-by-field ReferenceCrafter, byte-for-byte on
// random parameters (WireDriver alternates them per PSN; this pins them
// directly).
std::optional<Failure> template_identity_property(Rng& rng) {
  const auto cfg = gen_small_config(rng);
  WireDriver driver(cfg);  // only used for its crafter/dst wiring
  const auto& crafter = driver.crafter();
  const auto dst = driver.collector().remote_info();
  core::ReporterEndpoint src;
  src.mac = {0xAA, 0xBB, 0xCC, 0x00, 0x00, 0x01};
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);

  const auto key = core::sim_key(gen_key(rng));
  const auto value = gen_value(rng, cfg.value_bytes);
  const auto n = static_cast<std::uint32_t>(rng.below(cfg.n_addresses));
  const auto psn = static_cast<std::uint32_t>(rng.below(1u << 24));

  const auto tpl = crafter.make_write_template(dst, src);
  std::vector<std::byte> fast(tpl.frame_size());
  const auto len = crafter.craft_write_into(tpl, key, value, n, psn, fast);
  fast.resize(len);
  const auto reference =
      ReferenceCrafter(cfg).craft_write(dst, src, key, value, n, psn);
  if (fast != reference) {
    return Failure{"template write frame differs from reference crafter",
                   reference};
  }
  return std::nullopt;
}

TEST(PropWire, TemplatePathIsByteIdenticalToReference) {
  const auto report = check("template_identity", template_identity_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

}  // namespace
}  // namespace dart::check
