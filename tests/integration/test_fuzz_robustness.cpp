// Robustness fuzzing: every wire-facing parser and the RNIC execution path
// must be memory-safe and semantics-preserving under arbitrary and mutated
// input. A telemetry collector's NIC faces the rawest traffic in the
// datacenter; "garbage in → counted drop" is a core invariant of this
// codebase.
//
// Every suite logs its RNG seed on entry and honors a DART_SEED override
// (check::seed_from_env), so a failure in CI is reproducible locally with
// the exact byte stream that triggered it.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include <filesystem>
#include <fstream>

#include "check/property.hpp"
#include "common/random.hpp"
#include "core/collector.hpp"
#include "core/epoch.hpp"
#include "core/oracle.hpp"
#include "core/query_protocol.hpp"
#include "core/report_crafter.hpp"
#include "net/headers.hpp"
#include "rdma/multiwrite.hpp"
#include "rdma/rnic.hpp"
#include "rdma/roce.hpp"
#include "telemetry/int_wire.hpp"

namespace dart {
namespace {

std::vector<std::byte> random_blob(Xoshiro256& rng, std::size_t max_len) {
  std::vector<std::byte> blob(rng.below(max_len + 1));
  for (auto& b : blob) b = static_cast<std::byte>(rng() & 0xFF);
  return blob;
}

TEST(Fuzz, ParsersSurviveRandomBlobs) {
  Xoshiro256 rng(check::seed_from_env(0xF022, "Fuzz.ParsersSurviveRandomBlobs"));
  // The RNIC's request parse sees the blob as a RoCEv2 datagram's payload.
  net::UdpFrameSpec roce;
  roce.dst_port = net::kRoceV2UdpPort;
  for (int i = 0; i < 20'000; ++i) {
    const auto blob = random_blob(rng, 256);
    (void)net::parse_udp_frame(blob);
    (void)rdma::classify_wire_frame(blob, /*check_icrc=*/true);
    (void)rdma::classify_wire_frame(net::build_udp_frame(roce, blob),
                                    /*check_icrc=*/false);
    (void)rdma::parse_multiwrite(blob);
    (void)telemetry::int_original_dst_port(blob);
    (void)telemetry::int_sink_owes_hop(blob, 1);
    (void)core::parse_query_request(blob);
    (void)core::parse_query_response(blob);
  }
  SUCCEED();  // reaching here without UB/asan findings is the assertion
}

TEST(Fuzz, RnicNeverExecutesRandomBlobs) {
  core::DartConfig cfg;
  cfg.n_slots = 1 << 10;
  cfg.n_addresses = 2;
  cfg.value_bytes = 8;
  cfg.master_seed = 0xF0;
  const core::CollectorEndpoint ep{{2, 0, 0, 0, 0, 1},
                                   net::Ipv4Addr::from_octets(10, 0, 100, 1)};
  core::Collector collector(cfg, 0, ep);
  collector.rnic().set_dta_multiwrite(true);

  Xoshiro256 rng(check::seed_from_env(0xF033, "Fuzz.RnicNeverExecutesRandomBlobs"));
  std::uint64_t executed = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto blob = random_blob(rng, 200);
    if (collector.rnic().process_frame(blob).has_value()) ++executed;
  }
  // A random blob passing Ethernet+IPv4-checksum+UDP+iCRC+rkey validation is
  // astronomically unlikely.
  EXPECT_EQ(executed, 0u);
  // And the store memory is still all zero.
  for (const auto b : collector.store().memory()) {
    ASSERT_EQ(static_cast<std::uint8_t>(b), 0);
  }
}

TEST(Fuzz, MutatedReportsAreRejectedOrSemanticallyIdentical) {
  // Take a valid report frame, flip one random byte, and feed it to a fresh
  // RNIC. Outcome must be: rejected (counted), or executed with EXACTLY the
  // same memory effect as the pristine frame (the flip landed in a field
  // that does not participate in validation or semantics, e.g. MAC bytes or
  // iCRC-masked fields).
  core::DartConfig cfg;
  cfg.n_slots = 1 << 10;
  cfg.n_addresses = 2;
  cfg.value_bytes = 8;
  cfg.master_seed = 0xF1;
  const core::CollectorEndpoint ep{{2, 0, 0, 0, 0, 1},
                                   net::Ipv4Addr::from_octets(10, 0, 100, 1)};

  const core::ReportCrafter crafter(cfg);
  core::ReporterEndpoint src;
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);

  // Reference memory image from the pristine frame.
  core::Collector reference(cfg, 0, ep);
  const auto key = core::sim_key(77);
  std::vector<std::byte> value(8, std::byte{0x3A});
  const auto tpl = crafter.make_write_template(reference.remote_info(), src);
  std::vector<std::byte> pristine(tpl.frame_size());
  ASSERT_EQ(crafter.craft_write_into(tpl, key, value, 0, 0, pristine),
            pristine.size());
  ASSERT_TRUE(reference.rnic().process_frame(pristine).has_value());

  Xoshiro256 rng(check::seed_from_env(0xF044, "Fuzz.MutatedReportsAreRejectedOrSemanticallyIdentical"));
  int executed_mutants = 0;
  for (int i = 0; i < 4'000; ++i) {
    core::Collector target(cfg, 0, ep);
    // Same rkey seed → same rkey as the reference collector.
    auto mutant = pristine;
    const std::size_t pos = rng.below(mutant.size());
    const auto flip = static_cast<std::byte>(1u << rng.below(8));
    mutant[pos] ^= flip;

    const auto completion = target.rnic().process_frame(mutant);
    if (!completion.has_value()) {
      // Rejected: memory must be untouched.
      for (const auto b : target.store().memory()) {
        ASSERT_EQ(static_cast<std::uint8_t>(b), 0) << "flip at " << pos;
      }
      continue;
    }
    ++executed_mutants;
    // Executed: memory must equal the reference image exactly.
    ASSERT_EQ(0, std::memcmp(target.store().memory().data(),
                             reference.store().memory().data(),
                             reference.store().memory().size()))
        << "flip at " << pos;
  }
  // Some mutants execute (flips in MACs / masked fields) — but none with
  // altered semantics. Sanity-check both sides are exercised.
  EXPECT_GT(executed_mutants, 0);
  EXPECT_LT(executed_mutants, 4'000);
}

TEST(Fuzz, QueryEngineSurvivesGarbageStoreMemory) {
  // Fill a store's memory with random bytes and query with every policy:
  // no crash, and results satisfy structural invariants.
  core::DartConfig cfg;
  cfg.n_slots = 1 << 12;
  cfg.n_addresses = 4;
  cfg.checksum_bits = 8;  // small b → plenty of accidental matches
  cfg.value_bytes = 12;
  cfg.master_seed = 0xF2;
  core::DartStore store(cfg);
  Xoshiro256 rng(check::seed_from_env(0xF055, "Fuzz.QueryEngineSurvivesGarbageStoreMemory"));
  for (auto& b : store.memory()) b = static_cast<std::byte>(rng() & 0xFF);

  const core::QueryEngine engine(store);
  int found = 0;
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    for (const auto policy :
         {core::ReturnPolicy::kFirstMatch, core::ReturnPolicy::kSingleDistinct,
          core::ReturnPolicy::kPlurality, core::ReturnPolicy::kConsensusTwo}) {
      const auto r = engine.resolve(core::sim_key(i), policy);
      ASSERT_LE(r.distinct_values, r.checksum_matches);
      ASSERT_LE(r.checksum_matches, cfg.n_addresses);
      if (r.outcome == core::QueryOutcome::kFound) {
        ASSERT_EQ(r.value.size(), cfg.value_bytes);
        ++found;
      } else {
        ASSERT_TRUE(r.value.empty());
      }
    }
  }
  // b=8 on garbage: matches occur at a healthy rate (sanity that the fuzz
  // actually exercised the found path).
  EXPECT_GT(found, 0);
}

TEST(Fuzz, IntTransitOnMutatedPacketsNeverCorruptsMemory) {
  // INT transit push on frames around random/mutated payloads: leaves the
  // payload alone or grows the stack coherently; the sink then pops what
  // it accepts without reading out of bounds.
  Xoshiro256 rng(check::seed_from_env(0xF066, "Fuzz.IntTransitOnMutatedPacketsNeverCorruptsMemory"));
  std::vector<std::byte> value(20);
  for (int i = 0; i < 10'000; ++i) {
    net::UdpFrameSpec spec;
    spec.dst_port = telemetry::kIntUdpPort;
    net::Packet frame(net::build_udp_frame(spec, random_blob(rng, 128)));
    const std::size_t size = frame.size();
    const auto payload = telemetry::int_transit_push_frame(
        frame, {.switch_id = static_cast<std::uint32_t>(rng() & 0xFFFF)});
    if (frame.size() > size) {
      // A successful push implies the blob was a well-formed INT payload;
      // it must still be one afterwards.
      ASSERT_TRUE(telemetry::int_original_dst_port(payload).has_value());
    }
    const auto owes = telemetry::int_sink_owes_hop(payload, 1);
    if (!owes) continue;
    std::optional<telemetry::IntHopMetadata> own;
    if (*owes) own = telemetry::IntHopMetadata{.switch_id = 1};
    (void)telemetry::int_sink_pop_frame(frame, own, rng.below(9), value);
    ASSERT_TRUE(net::parse_udp_frame(frame.bytes()).has_value());
  }
  SUCCEED();
}

TEST(Fuzz, ArchiveReaderSurvivesRandomFiles) {
  namespace fs = std::filesystem;
  const auto path =
      (fs::temp_directory_path() / "dart_fuzz_archive.bin").string();
  Xoshiro256 rng(check::seed_from_env(0xF088, "Fuzz.ArchiveReaderSurvivesRandomFiles"));
  int opened = 0;
  for (int i = 0; i < 300; ++i) {
    auto blob = random_blob(rng, 512);
    // Half the time, start with the valid magic to reach deeper code paths.
    static constexpr char kMagic[8] = {'D', 'A', 'R', 'T', 'A', 'R', 'C', 'H'};
    if (blob.size() >= 8 && (i & 1)) {
      std::memcpy(blob.data(), kMagic, 8);
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(blob.data()),
                static_cast<std::streamsize>(blob.size()));
    }
    const auto reader = core::EpochArchiveReader::open(path);
    if (reader.ok()) ++opened;  // possible only for a coincidentally valid file
  }
  fs::remove(path);
  // Random bytes essentially never form a CRC-valid archive.
  EXPECT_EQ(opened, 0);
}

}  // namespace
}  // namespace dart
