// §7 extensions in action: RDMA Fetch&Add for collector-side flow counters
// and network-wide sketch aggregation.
//
// "Fetch & Add can be used to implement flow-counters directly in
//  collectors' memory (saving resources at switches) or to perform
//  network-wide aggregation of sketches."
//
// Two switches maintain ZERO counter state locally; each packet observation
// becomes a FETCH_ADD frame aimed at (a) a per-flow counter cell and (b) the
// d cells of a shared count-min sketch in the collector's memory region. The
// RNIC executes the atomics; the operator reads exact-ish per-flow counts
// and heavy-hitter estimates without any merge step.
//
// Build & run:  ./build/examples/rdma_aggregation
#include <cstdio>
#include <vector>

#include "common/random.hpp"
#include "core/cell_sheet.hpp"
#include "core/report_crafter.hpp"
#include "rdma/rnic.hpp"
#include "switchsim/topology.hpp"
#include "telemetry/workload.hpp"

int main() {
  using namespace dart;
  using namespace dart::core;

  // Collector memory: 4K flow-counter cells + a 4x1024 count-min sketch,
  // both registered as one RDMA MR of 64-bit words.
  constexpr std::uint64_t kCounterCells = 4096;
  constexpr std::uint32_t kSketchRows = 4;
  constexpr std::uint64_t kSketchCols = 1024;
  constexpr std::uint64_t kWords = kCounterCells + kSketchRows * kSketchCols;
  std::vector<std::byte> memory(kWords * 8, std::byte{0});

  rdma::SimulatedRnic rnic;
  const auto pd = rnic.alloc_pd();
  constexpr std::uint64_t kBase = 0x0000'2000'0000'0000ull;
  const auto mr = rnic.register_mr(
      pd, memory, kBase, rdma::Access::kRemoteWrite | rdma::Access::kRemoteAtomic);
  (void)rnic.create_qp(0x200, rdma::QpType::kRc, pd, rdma::PsnPolicy::kIgnore);

  // Two cell sheets over the one MR: a flat counter array, then the sketch.
  // Switches craft from their geometries (stateless, like the slot mapping);
  // the operator reads collector memory through them.
  const std::span<std::byte> words(memory);
  const CellSheet counters(CellGeometry::flat(kCounterCells, /*seed=*/0xC0),
                           words.first(kCounterCells * 8));
  const CellSheet sketch(
      CellGeometry::count_min(kSketchRows, kSketchCols, /*seed=*/0x55),
      words.subspan(kCounterCells * 8));

  RemoteStoreInfo dst;
  dst.collector_id = 0;
  dst.ip = net::Ipv4Addr::from_octets(10, 0, 100, 1);
  dst.qpn = 0x200;
  dst.rkey = mr.value().rkey;
  dst.base_vaddr = kBase;
  dst.n_slots = kWords;
  dst.slot_bytes = 8;

  DartConfig cfg;  // crafter only needs framing params here
  cfg.n_slots = kWords;
  cfg.value_bytes = 8;
  const ReportCrafter crafter(cfg);

  // Two switches observe a Zipf workload and emit FETCH_ADD frames.
  const switchsim::FatTree topo(4);
  telemetry::FlowSampler sampler(topo, 300, 1.2, 9);
  std::uint32_t psn = 0;
  std::vector<std::uint64_t> truth(300, 0);

  for (int sw = 0; sw < 2; ++sw) {
    ReporterEndpoint src;
    src.ip = net::Ipv4Addr::from_octets(10, 255, 0, static_cast<std::uint8_t>(sw));
    const auto tpl =
        crafter.make_atomic_template(dst, src, rdma::Opcode::kRcFetchAdd);
    std::vector<std::byte> frame(tpl.frame_size());
    Xoshiro256 rng(100 + sw);
    for (int pkt = 0; pkt < 20'000; ++pkt) {
      const auto idx = rng.below(300);
      const auto& flow = sampler.flow(idx);
      truth[idx] += 1;
      const auto key = flow.tuple.key_bytes();

      // (a) per-flow counter cell.
      const std::uint64_t cell = counters.geometry().cell_of(key, 0);
      crafter.craft_fetch_add_into(tpl, kBase + cell * 8, 1, psn++, frame);
      (void)rnic.process_frame(frame);

      // (b) the sketch's d cells.
      for (std::uint32_t r = 0; r < kSketchRows; ++r) {
        const std::uint64_t word =
            kCounterCells + sketch.geometry().cell_of(key, r);
        crafter.craft_fetch_add_into(tpl, kBase + word * 8, 1, psn++, frame);
        (void)rnic.process_frame(frame);
      }
    }
  }
  std::printf("RNIC executed %llu FETCH_ADDs from 2 switches "
              "(switch SRAM used for counters: 0 bytes).\n",
              static_cast<unsigned long long>(rnic.counters().fetch_adds));

  std::printf("\nTop-5 flows — truth vs counter cell vs sketch estimate:\n");
  for (int rank = 0; rank < 5; ++rank) {
    const auto& flow = sampler.flow(rank);
    const auto key = flow.tuple.key_bytes();
    const std::uint64_t counter = counters.estimate(key);
    const std::uint64_t sketch_est = sketch.estimate(key);
    std::printf("  %-34s truth=%-6llu counter=%-6llu sketch>=%llu\n",
                flow.tuple.str().c_str(),
                static_cast<unsigned long long>(truth[rank]),
                static_cast<unsigned long long>(counter),
                static_cast<unsigned long long>(sketch_est));
  }
  std::printf("\n(Counter cells can over-count on hash collisions; the sketch\n"
              "over-estimates by design — both are collector-side only.)\n");
  return 0;
}
