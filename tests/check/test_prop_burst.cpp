// Differential properties for the burst datapath (SIMD PR): the batch
// entry points — ReportCrafter::craft_write_into_n and
// SimulatedRnic::process_frames — must be observationally identical to the
// per-op/per-frame paths they accelerate, and burst-applied DMA must land
// the same bytes the ReferenceFabric oracle computes. Each property runs
// 1000 seeded cases; the sanitizer matrix re-runs them with DART_NO_SIMD=1
// so both dispatch modes (PCLMUL/AVX2 and forced scalar) are covered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "check/gen.hpp"
#include "check/golden.hpp"
#include "check/property.hpp"
#include "check/reference.hpp"
#include "core/collector.hpp"
#include "core/oracle.hpp"
#include "core/report_crafter.hpp"

namespace dart::check {
namespace {

core::CollectorEndpoint burst_endpoint() {
  core::CollectorEndpoint ep;
  ep.mac = {0x02, 0x00, 0x00, 0xBB, 0x00, 0x01};
  ep.ip = net::Ipv4Addr::from_octets(10, 99, 0, 1);
  return ep;
}

core::ReporterEndpoint burst_reporter() {
  core::ReporterEndpoint src;
  src.mac = {0x02, 0x00, 0x00, 0xAA, 0x00, 0x01};
  src.ip = net::Ipv4Addr::from_octets(10, 99, 0, 2);
  return src;
}

// --- burst crafting ---------------------------------------------------------
//
// craft_write_into_n batch-hashes slot addresses (AVX2 XXH64 when every key
// is 8 bytes) and patches frames back-to-back. Byte-identity against the
// already-proven craft_write_into, op by op, over op counts that cross the
// 64-lane chunk boundary and key widths that force the scalar fallback.
std::optional<Failure> burst_craft_identity(Rng& rng) {
  const auto cfg = gen_small_config(rng);
  const core::ReportCrafter crafter(cfg);
  core::Collector collector(cfg, /*collector_id=*/0, burst_endpoint());
  const auto dst = collector.remote_info();
  const auto tpl = crafter.make_write_template(dst, burst_reporter());

  const std::size_t n_ops = 1 + rng.below(90);  // crosses the 64-op chunk
  // Mostly 8-byte sim keys (the batched lane); sometimes odd widths so the
  // burst path's per-op scalar fallback is exercised in the same stream.
  std::vector<std::vector<std::byte>> keys(n_ops);
  std::vector<std::vector<std::byte>> values(n_ops);
  std::vector<core::ReportCrafter::WriteOp> ops(n_ops);
  std::uint32_t psn = static_cast<std::uint32_t>(rng.below(1u << 20));
  const bool all_eight = rng.below(4) != 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    if (all_eight || rng.below(8) != 0) {
      const auto k = core::sim_key(gen_key(rng));
      keys[i].assign(k.begin(), k.end());
    } else {
      keys[i].resize(1 + rng.below(16));
      for (auto& b : keys[i]) {
        b = static_cast<std::byte>(rng.below(256));
      }
    }
    values[i] = gen_value(rng, cfg.value_bytes);
    ops[i].key = keys[i];
    ops[i].value = values[i];
    ops[i].n = static_cast<std::uint32_t>(rng.below(cfg.n_addresses));
    ops[i].psn = psn++;
  }

  std::vector<std::byte> burst(n_ops * tpl.frame_size());
  const auto crafted = crafter.craft_write_into_n(tpl, ops, burst);
  if (crafted != n_ops) {
    return Failure{"craft_write_into_n crafted " + std::to_string(crafted) +
                       " of " + std::to_string(n_ops) + " frames",
                   {}};
  }

  std::vector<std::byte> single(tpl.frame_size());
  for (std::size_t i = 0; i < n_ops; ++i) {
    const auto len = crafter.craft_write_into(tpl, ops[i].key, ops[i].value,
                                              ops[i].n, ops[i].psn, single);
    if (len != tpl.frame_size()) {
      return Failure{"reference craft_write_into failed at op " +
                         std::to_string(i),
                     {}};
    }
    const auto frame = std::span<const std::byte>(burst).subspan(
        i * tpl.frame_size(), tpl.frame_size());
    if (!std::ranges::equal(frame, std::span<const std::byte>(single))) {
      return Failure{"burst frame " + std::to_string(i) + "/" +
                         std::to_string(n_ops) +
                         " differs from craft_write_into (key width " +
                         std::to_string(ops[i].key.size()) + ")",
                     std::vector<std::byte>(frame.begin(), frame.end())};
    }
  }
  return std::nullopt;
}

TEST(PropBurst, BurstCraftIsByteIdenticalToPerOpCraft) {
  const auto report = check("burst_craft_identity", burst_craft_identity, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

// --- burst ingest -----------------------------------------------------------
//
// Two identical collectors (same config/id → same rkey, QPN, base vaddr) fed
// the same frame stream: one frame at a time vs one process_frames burst.
// The stream mixes valid WRITE/atomic/multiwrite frames with corrupted,
// truncated, and garbage frames, so the staged burst path must agree with
// the single-frame path on every verdict counter — not just on the happy
// path — and on every byte of store memory.
struct CounterSnapshot {
  const char* name;
  std::uint64_t value;
};

std::vector<CounterSnapshot> snapshot(const rdma::RnicCounters& c) {
  return {
      {"frames", c.frames.load()},
      {"executed", c.executed.load()},
      {"writes", c.writes.load()},
      {"multiwrite_frames", c.multiwrite_frames.load()},
      {"fetch_adds", c.fetch_adds.load()},
      {"compare_swaps", c.compare_swaps.load()},
      {"cas_mismatches", c.cas_mismatches.load()},
      {"not_roce", c.not_roce.load()},
      {"bad_icrc", c.bad_icrc.load()},
      {"bad_opcode", c.bad_opcode.load()},
      {"unknown_qp", c.unknown_qp.load()},
      {"psn_rejected", c.psn_rejected.load()},
      {"bad_rkey", c.bad_rkey.load()},
      {"pd_mismatch", c.pd_mismatch.load()},
      {"access_denied", c.access_denied.load()},
      {"out_of_bounds", c.out_of_bounds.load()},
      {"unaligned_atomic", c.unaligned_atomic.load()},
      {"stalled", c.stalled.load()},
      {"qp_error", c.qp_error.load()},
  };
}

std::optional<Failure> burst_ingest_identity(Rng& rng) {
  const auto cfg = gen_small_config(rng);
  const core::ReportCrafter crafter(cfg);
  core::Collector one_by_one(cfg, /*collector_id=*/0, burst_endpoint());
  core::Collector bursty(cfg, /*collector_id=*/0, burst_endpoint());
  one_by_one.rnic().set_dta_multiwrite(true);
  bursty.rnic().set_dta_multiwrite(true);
  const auto dst = one_by_one.remote_info();
  const auto src = burst_reporter();

  const auto write_tpl = crafter.make_write_template(dst, src);
  const auto multiwrite_tpl = crafter.make_multiwrite_template(dst, src);
  const auto fetch_add_tpl =
      crafter.make_atomic_template(dst, src, rdma::Opcode::kRcFetchAdd);

  const std::size_t n_frames = 1 + rng.below(80);  // crosses the 32-frame burst
  std::vector<std::vector<std::byte>> frames(n_frames);
  std::uint32_t psn = 0;
  for (std::size_t i = 0; i < n_frames; ++i) {
    const auto key = core::sim_key(gen_key(rng));
    const auto value = gen_value(rng, cfg.value_bytes);
    const auto write_copy = [&] {
      frames[i].resize(write_tpl.frame_size());
      crafter.craft_write_into(
          write_tpl, key, value,
          static_cast<std::uint32_t>(rng.below(cfg.n_addresses)), psn++,
          frames[i]);
    };
    const auto shape = rng.below(10);
    switch (shape) {
      case 0:  // DTA multiwrite: all N copies in one frame
        frames[i].resize(multiwrite_tpl.frame_size());
        crafter.craft_multiwrite_into(multiwrite_tpl, key, value, psn++,
                                      frames[i]);
        break;
      case 1:  // atomic FETCH_ADD on a store word
        frames[i].resize(fetch_add_tpl.frame_size());
        crafter.craft_fetch_add_into(
            fetch_add_tpl, dst.base_vaddr + rng.below(cfg.n_slots) * 8,
            rng.below(1u << 16), psn++, frames[i]);
        break;
      case 2: {  // corrupted: one flipped byte in an otherwise valid WRITE
        write_copy();
        auto& f = frames[i];
        f[rng.below(f.size())] ^= static_cast<std::byte>(1 + rng.below(255));
        break;
      }
      case 3: {  // truncated valid WRITE (any prefix length, even 0)
        write_copy();
        frames[i].resize(rng.below(frames[i].size()));
        break;
      }
      case 4: {  // garbage bytes
        frames[i].resize(rng.below(128));
        for (auto& b : frames[i]) {
          b = static_cast<std::byte>(rng.below(256));
        }
        break;
      }
      default:  // valid WRITE of one copy
        write_copy();
        break;
    }
  }

  std::size_t single_executed = 0;
  for (const auto& f : frames) {
    if (one_by_one.rnic().process_frame(f).has_value()) ++single_executed;
  }
  std::vector<std::span<const std::byte>> views(frames.begin(), frames.end());
  const auto burst_executed = bursty.rnic().process_frames(views);

  if (burst_executed != single_executed) {
    return Failure{"process_frames executed " + std::to_string(burst_executed) +
                       " ops, per-frame path executed " +
                       std::to_string(single_executed),
                   {}};
  }
  const auto a = snapshot(one_by_one.ingest_counters());
  const auto b = snapshot(bursty.ingest_counters());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].value != b[i].value) {
      return Failure{std::string("counter ") + a[i].name + " diverged: " +
                         "per-frame " + std::to_string(a[i].value) +
                         " burst " + std::to_string(b[i].value),
                     {}};
    }
  }
  const auto mem_a = one_by_one.store().memory();
  const auto mem_b = bursty.store().memory();
  if (!std::ranges::equal(mem_a, mem_b)) {
    std::size_t off = 0;
    while (off < mem_a.size() && mem_a[off] == mem_b[off]) ++off;
    return Failure{"store byte " + std::to_string(off) +
                       " diverged: per-frame 0x" + to_hex({&mem_a[off], 1}) +
                       " burst 0x" + to_hex({&mem_b[off], 1}),
                   {}};
  }
  return std::nullopt;
}

TEST(PropBurst, BurstIngestMatchesPerFrameIngest) {
  const auto report = check("burst_ingest_identity", burst_ingest_identity, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

// --- burst end-to-end vs the oracle -----------------------------------------
//
// The full accelerated pipeline — craft_write_into_n burst frames pushed
// through process_frames DMA — must leave store memory byte-identical to
// ReferenceFabric applying the same logical write ops directly. This is the
// ISSUE's "post-DMA memory vs ReferenceFabric" property for the new fast
// paths: if either the batch hasher, the fused classifier, or the staged
// apply drifts by one byte, the diff pins it.
std::optional<Failure> burst_end_to_end(Rng& rng) {
  const auto cfg = gen_small_config(rng);
  const core::ReportCrafter crafter(cfg);
  core::Collector collector(cfg, /*collector_id=*/0, burst_endpoint());
  ReferenceFabric reference(cfg);
  const auto dst = collector.remote_info();
  const auto tpl = crafter.make_write_template(dst, burst_reporter());

  const std::size_t n_ops = 1 + rng.below(80);
  std::vector<std::array<std::byte, 8>> keys(n_ops);
  std::vector<std::vector<std::byte>> values(n_ops);
  std::vector<core::ReportCrafter::WriteOp> ops(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    ReportOp logical;
    logical.kind = ReportOp::Kind::kWrite;
    logical.key = gen_key(rng);
    logical.value = gen_value(rng, cfg.value_bytes);
    logical.copy = static_cast<std::uint32_t>(rng.below(cfg.n_addresses));
    keys[i] = core::sim_key(logical.key);
    values[i] = logical.value;
    ops[i].key = keys[i];
    ops[i].value = values[i];
    ops[i].n = logical.copy;
    ops[i].psn = static_cast<std::uint32_t>(i);
    reference.apply(logical);
  }

  std::vector<std::byte> burst(n_ops * tpl.frame_size());
  if (crafter.craft_write_into_n(tpl, ops, burst) != n_ops) {
    return Failure{"craft_write_into_n failed", {}};
  }
  std::vector<std::span<const std::byte>> views(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    views[i] = std::span<const std::byte>(burst).subspan(i * tpl.frame_size(),
                                                         tpl.frame_size());
  }
  const auto executed = collector.rnic().process_frames(views);
  if (executed != n_ops) {
    return Failure{"burst DMA executed " + std::to_string(executed) + " of " +
                       std::to_string(n_ops) + " crafted frames",
                   {}};
  }

  const auto real = collector.store().memory();
  const auto ref = reference.memory();
  if (!std::ranges::equal(real, ref)) {
    std::size_t off = 0;
    while (off < real.size() && real[off] == ref[off]) ++off;
    return Failure{"store byte " + std::to_string(off) +
                       " diverged from ReferenceFabric: real 0x" +
                       to_hex({&real[off], 1}) + " reference 0x" +
                       to_hex({&ref[off], 1}),
                   {}};
  }
  return std::nullopt;
}

TEST(PropBurst, BurstPipelineMatchesReferenceFabric) {
  const auto report = check("burst_end_to_end", burst_end_to_end, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

}  // namespace
}  // namespace dart::check
