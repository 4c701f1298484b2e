// ReferenceCrafter — the field-by-field report serializers, kept as the
// oracle for the production crafting path.
//
// core::ReportCrafter crafts every report by patching a cached frame
// template (make_*_template + craft_*_into). This class builds each frame
// the long way instead: fill the header structs, run the wire serializers
// (rdma::serialize_write / serialize_atomic / encode_multiwrite, then
// net::build_udp_frame) and finalize the iCRC over the whole frame. It
// allocates per frame and exists only for checks: the crafting property
// (tests/check/test_prop_craft.cpp) and the byte-identity tests diff
// template frames against it, the golden traces are generated from it, and
// WireDriver crafts its odd-PSN frames with it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "core/collector.hpp"
#include "core/config.hpp"
#include "core/primitives.hpp"
#include "core/report_crafter.hpp"
#include "core/store_backend.hpp"

namespace dart::check {

// Reference cell addressing of the FETCH_ADD counter regions, written apart
// from core::CellGeometry so the tests diff the production sheets against
// it rather than against each other.
//
// Key-Increment: the cell of `key` among `n` counters.
[[nodiscard]] std::uint64_t reference_counter_cell(
    std::span<const std::byte> key, std::uint64_t seed, std::uint64_t n);
// Count-min: row `row`'s cell of `key` in a row-major sheet `cols` wide.
// The row's seed is found by walking SplitMix64 from `seed` to its
// (row+1)-th output on every call.
[[nodiscard]] std::uint64_t reference_sketch_cell(
    std::span<const std::byte> key, std::uint64_t seed, std::uint32_t row,
    std::uint64_t cols);

class ReferenceCrafter {
 public:
  explicit ReferenceCrafter(const core::DartConfig& config)
      : config_(config), hashes_(config.n_addresses, config.master_seed) {}

  // One RDMA WRITE report for copy `n` of (key, value). `psn` is the
  // sender's per-collector sequence number (the register array of §6).
  [[nodiscard]] std::vector<std::byte> craft_write(
      const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
      std::span<const std::byte> key, std::span<const std::byte> value,
      std::uint32_t n, std::uint32_t psn) const;

  // FETCH_ADD on the 64-bit word at remote `vaddr`.
  [[nodiscard]] std::vector<std::byte> craft_fetch_add(
      const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
      std::uint64_t vaddr, std::uint64_t addend, std::uint32_t psn) const;

  // COMPARE_SWAP on the 64-bit word at remote `vaddr`.
  [[nodiscard]] std::vector<std::byte> craft_compare_swap(
      const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
      std::uint64_t vaddr, std::uint64_t compare, std::uint64_t swap,
      std::uint32_t psn) const;

  // §7 SmartNIC extension: ONE frame that fills all N slots of (key, value).
  [[nodiscard]] std::vector<std::byte> craft_multiwrite(
      const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
      std::span<const std::byte> key, std::span<const std::byte> value,
      std::uint32_t psn) const;

  // --- DTA translator primitives (primitives.hpp) --------------------------
  //
  // `dst` is the matching region row from the collector
  // (remote_ring_info() / remote_counter_info() / remote_postcard_info()).

  // Building block: RDMA WRITE of an arbitrary payload at `vaddr` in `dst`.
  [[nodiscard]] std::vector<std::byte> craft_raw_write(
      const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
      std::uint64_t vaddr, std::span<const std::byte> payload,
      std::uint32_t psn) const;

  // Append: entry `seq` (the switch's tail value, 1-based) into the ring.
  [[nodiscard]] std::vector<std::byte> craft_append(
      const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
      const core::AppendRingConfig& ring, std::uint64_t seq,
      std::span<const std::byte> value, std::uint32_t psn) const;

  // Key-Increment: FETCH_ADD of `delta` on the cell owning `key`.
  [[nodiscard]] std::vector<std::byte> craft_key_increment(
      const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
      const core::CounterArrayConfig& counters, std::span<const std::byte> key,
      std::uint64_t delta, std::uint32_t psn) const;

  // Sketch backend: FETCH_ADD of `delta` on row `row`'s cell of `key` in a
  // sketch-backed collector's MR (`dst`: slot_bytes == 8, one slot per cell).
  [[nodiscard]] std::vector<std::byte> craft_sketch_increment(
      const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
      const core::SketchBackendConfig& sketch, std::span<const std::byte> key,
      std::uint32_t row, std::uint64_t delta, std::uint32_t psn) const;

  // Postcarding: hop `hop` of `flow_key`'s slot group.
  [[nodiscard]] std::vector<std::byte> craft_postcard(
      const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
      const core::PostcardConfig& postcards,
      std::span<const std::byte> flow_key, std::uint32_t hop,
      std::span<const std::byte> value, std::uint32_t psn) const;

 private:
  [[nodiscard]] std::uint64_t slot_vaddr(const core::RemoteStoreInfo& dst,
                                         std::span<const std::byte> key,
                                         std::uint32_t n) const noexcept {
    return dst.slot_vaddr(hashes_.address_of(key, n, dst.n_slots));
  }

  [[nodiscard]] std::vector<std::byte> wrap_frame(
      const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
      std::span<const std::byte> roce_payload) const;

  core::DartConfig config_;
  HashFamily hashes_;
};

}  // namespace dart::check
