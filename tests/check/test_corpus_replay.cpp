// Seed-corpus replay: every fixture under tests/corpus/ is fed to the
// parsers and the full RNIC ingest path.
//
// The canonical seeds (written by `dart_trace corpus`) are must-reject
// frames with a pinned rejection reason: each must bump exactly its
// documented counter and leave store memory untouched. Any other *.hex file
// in the directory — shrunk cases appended by a failing property run — gets
// the weaker universal invariant: parsers and ingest must not crash, and a
// frame that doesn't execute must not mutate memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "check/golden.hpp"
#include "core/query_protocol.hpp"
#include "net/headers.hpp"
#include "rdma/multiwrite.hpp"

namespace dart::check {
namespace {

std::string corpus_dir() {
  return std::string(DART_SOURCE_DIR) + "/tests/corpus";
}

struct Ingest {
  core::Collector collector;
  explicit Ingest(const GoldenDeployment& dep)
      : collector(dep.config, 0, dep.collector_endpoint) {
    collector.rnic().set_dta_multiwrite(true);
  }
};

bool memory_all_zero(const core::Collector& c) {
  const auto mem = c.store().memory();
  return std::all_of(mem.begin(), mem.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

// The pinned rejection counter for each canonical seed.
std::uint64_t rejection_count(const rdma::RnicCounters& c,
                              const std::string& name) {
  if (name == "truncated_write") return c.not_roce.load();
  if (name == "bad_ip_checksum") return c.not_roce.load();
  if (name == "ipv4_options") return c.not_roce.load();
  if (name == "ip_protocol_gre") return c.not_roce.load();
  if (name == "runt_roce") return c.bad_icrc.load();
  if (name == "bad_icrc_write") return c.bad_icrc.load();
  if (name == "truncated_multiwrite") return c.bad_icrc.load();
  if (name == "bad_opcode") return c.bad_opcode.load();
  if (name == "bth_only_roce") return c.bad_opcode.load();
  if (name == "unknown_qp") return c.unknown_qp.load();
  if (name == "bad_rkey") return c.bad_rkey.load();
  if (name == "oob_write") return c.out_of_bounds.load();
  if (name == "unaligned_atomic") return c.unaligned_atomic.load();
  return ~0ull;
}

TEST(CorpusReplay, CanonicalSeedsAreRejectedForTheirPinnedReason) {
  const auto dep = golden_deployment();
  for (const auto& seed : canonical_corpus()) {
    const auto committed =
        read_trace_file(corpus_dir() + "/" + seed.name + ".hex");
    ASSERT_TRUE(committed.has_value())
        << "missing fixture tests/corpus/" << seed.name
        << ".hex — regenerate: build/tools/dart_trace corpus --out=tests/corpus";
    // Committed fixture must match the generator (same byte-pinning contract
    // as the golden traces).
    ASSERT_EQ(committed->artifacts, seed.artifacts) << seed.name;

    // Each seed replays against its own fresh collector so counters and
    // memory assertions are exact.
    Ingest ingest(dep);
    for (const auto& frame : committed->artifacts) {
      const auto completion = ingest.collector.rnic().process_frame(frame);
      EXPECT_FALSE(completion.has_value()) << seed.name << " executed";
    }
    const auto& c = ingest.collector.ingest_counters();
    EXPECT_EQ(c.executed.load(), 0u) << seed.name;
    EXPECT_EQ(rejection_count(c, seed.name), committed->artifacts.size())
        << seed.name << " did not hit its pinned rejection counter";
    EXPECT_TRUE(memory_all_zero(ingest.collector))
        << seed.name << " mutated store memory";
  }
}

// Every file in the corpus — canonical or appended by a property failure —
// must survive all parsers and the ingest path without crashing, and
// without memory effects unless the RNIC reports an execution.
TEST(CorpusReplay, EveryCorpusFileSurvivesParsersAndIngest) {
  const auto dep = golden_deployment();
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_dir())) {
    if (entry.path().extension() != ".hex") continue;
    const auto trace = read_trace_file(entry.path().string());
    ASSERT_TRUE(trace.has_value()) << entry.path() << " is not a valid fixture";
    ++files;

    Ingest ingest(dep);
    for (const auto& artifact : trace->artifacts) {
      // Parsers must be total on arbitrary corpus bytes.
      (void)net::parse_udp_frame(artifact);
      (void)rdma::parse_multiwrite(artifact);
      (void)core::parse_query_request(artifact);
      (void)core::parse_query_response(artifact);

      (void)ingest.collector.rnic().process_frame(artifact);
      if (ingest.collector.ingest_counters().executed.load() == 0) {
        EXPECT_TRUE(memory_all_zero(ingest.collector))
            << entry.path() << ": rejected frame mutated memory";
      }
    }
  }
  // The canonical seeds are committed; an empty directory means the fixture
  // path is wrong, not that there is nothing to replay.
  EXPECT_GE(files, canonical_corpus().size());
}

}  // namespace
}  // namespace dart::check
