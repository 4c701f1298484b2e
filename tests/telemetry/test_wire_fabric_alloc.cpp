// Allocation guard for the WireFabric INT path. Once a fabric is warm, a
// data packet may cost at most 3.5 heap allocations end to end (it measures
// 3.03): its host frame, built with room for the INT the source edge
// inserts, and the N = 2 report frames the sink's DART pipeline crafts.
// send_flow reuses one payload buffer; source, transit and sink edit the
// frame in place without growing it, and the report path reuses its
// buffers, so nothing else allocates per hop.
//
// A binary of its own: it replaces the global operator new with a counting
// one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "telemetry/wire_fabric.hpp"
#include "telemetry/workload.hpp"

namespace {

std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dart::telemetry {
namespace {

TEST(WireFabricAllocations, AtMostFivePerDataPacketOnceWarm) {
  WireFabricConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.dart.n_slots = 1 << 12;
  cfg.dart.n_addresses = 2;
  cfg.dart.value_bytes = 20;
  cfg.switch_write_mode = core::WriteMode::kAllSlots;
  WireFabric fabric(cfg);
  FlowGenerator gen(fabric.topology(), 7);

  // A wave: 64 flows of 2 packets each, drained.
  const auto wave = [&fabric, &gen] {
    for (int f = 0; f < 64; ++f) {
      const auto fe = gen.next_flow();
      fabric.send_flow(fe.tuple, fe.src_host, 2);
    }
    fabric.run();
  };
  wave();  // warm-up: event pools and reused buffers reach their size

  const std::uint64_t sent_before = fabric.stats().host_packets_sent;
  const std::uint64_t reports_before = fabric.stats().reports_emitted;
  const std::uint64_t allocations_before = g_allocations;
  for (int w = 0; w < 8; ++w) wave();
  const std::uint64_t allocations = g_allocations - allocations_before;
  const auto st = fabric.stats();
  const std::uint64_t packets = st.host_packets_sent - sent_before;

  std::printf("allocations per data packet: %.3f\n",
              static_cast<double>(allocations) / static_cast<double>(packets));

  // The waves ran the INT path end to end.
  ASSERT_EQ(packets, 8u * 64u * 2u);
  EXPECT_EQ(st.host_packets_received, st.host_packets_sent);
  EXPECT_EQ(st.reports_emitted - reports_before, 2 * packets);
  EXPECT_LE(2 * allocations, 7 * packets);  // at most 3.5 per packet
}

}  // namespace
}  // namespace dart::telemetry
