// ReportCrafter — turns (key, value, slot copy n) into a complete RoCEv2
// report frame, the way the DART switch deparser of §6 does: compute the
// slot address with the global hash family, then emit UDP/4791 + BTH(WRITE
// ONLY) + RETH + [checksum ‖ value] + iCRC. switchsim::DartSwitchPipeline
// crafts every report through it.
//
// Crafting is template-only: make_*_template builds a frame prototype once
// per (reporter, collector) pair and craft_*_into patches the per-report
// fields into a caller-owned buffer. Also crafts the §7 extension
// operations: FETCH_ADD (collector-side flow counters / sketch aggregation),
// COMPARE_SWAP (insert-if-empty), DTA multiwrite and the DTA primitives.
// The field-by-field serializers these frames must equal byte for byte live
// in src/check/reference_crafter.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "core/collector.hpp"
#include "core/config.hpp"
#include "core/primitives.hpp"
#include "net/headers.hpp"
#include "rdma/roce.hpp"

namespace dart::core {

// Identity of the report sender (a switch or an end-host agent).
struct ReporterEndpoint {
  net::MacAddr mac{};
  net::Ipv4Addr ip{};
  std::uint16_t udp_src_port = 0xC000;  // RoCEv2 source ports use the dynamic range
};

// Precomputed frame skeleton for one (reporter endpoint, collector) pair.
//
// Everything up to the BTH PSN word — Ethernet, IPv4 (including its header
// checksum), UDP, and BTH bytes 0..7 — is invariant for a fixed pair, as is
// the frame length for a fixed DartConfig. A template stores the full
// reference frame once plus the streaming-CRC state over the masked
// invariant prefix, so ReportCrafter::craft_*_into can emit a report by
// memcpy + patching the variant fields (PSN, vaddr(s), operands, payload)
// and resuming the cached CRC over the ~50 variant bytes: zero allocations
// and no header reserialization per report. This mirrors what the real
// datapaths do — a Tofino deparser emits a fixed header template and a
// ConnectX engine computes iCRC in flight; neither rebuilds headers per
// packet.
//
// Built by ReportCrafter::make_*_template from the wire serializers' output
// with every per-report field zero. Frames produced through a template are
// byte-identical to the field-by-field reference serializers in
// src/check/reference_crafter.hpp (tests/check/test_prop_craft.cpp asserts
// this, iCRC included).
class FrameTemplate {
 public:
  enum class Kind : std::uint8_t {
    kInvalid,
    kWrite,
    kFetchAdd,
    kCompareSwap,
    kMultiwrite,
    kAppend,    // DTA Append: WRITE of [seq | value] into the ring region
    kPostcard,  // DTA Postcarding: WRITE of [checksum | value] into a group
  };

  FrameTemplate() = default;

  [[nodiscard]] bool valid() const noexcept { return kind_ != Kind::kInvalid; }
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  // Exact size of every frame crafted from this template; `out` buffers
  // passed to craft_*_into must hold at least this many bytes.
  [[nodiscard]] std::size_t frame_size() const noexcept {
    return prototype_.size();
  }
  // Destination the template was built for.
  [[nodiscard]] const RemoteStoreInfo& dst() const noexcept { return dst_; }

 private:
  friend class ReportCrafter;

  // Caches the CRC state over the prototype's invariant prefix: the masked
  // iCRC prefix for RoCEv2 kinds, the DTA header head for kMultiwrite.
  FrameTemplate(Kind kind, const RemoteStoreInfo& dst,
                std::vector<std::byte> prototype);

  [[nodiscard]] bool fits(Kind kind, std::size_t out_bytes) const noexcept {
    return kind_ == kind && out_bytes >= prototype_.size();
  }

  Kind kind_ = Kind::kInvalid;
  std::vector<std::byte> prototype_;  // reference frame, variant fields zeroed
  Crc32 crc_prefix_;  // CRC state over the masked invariant prefix
  RemoteStoreInfo dst_{};
};

class ReportCrafter {
 public:
  explicit ReportCrafter(const DartConfig& config)
      : config_(config), hashes_(config.n_addresses, config.master_seed) {}

  [[nodiscard]] const DartConfig& config() const noexcept { return config_; }
  [[nodiscard]] const HashFamily& hashes() const noexcept { return hashes_; }

  // Collector that owns `key`, among `n_collectors` (§3.2 step 1).
  [[nodiscard]] std::uint32_t collector_of(std::span<const std::byte> key,
                                           std::uint32_t n_collectors) const noexcept {
    return hashes_.collector_of(key, n_collectors);
  }

  // Remote vaddr of copy `n` of `key` at collector `dst`.
  [[nodiscard]] std::uint64_t slot_vaddr(const RemoteStoreInfo& dst,
                                         std::span<const std::byte> key,
                                         std::uint32_t n) const noexcept {
    return dst.slot_vaddr(hashes_.address_of(key, n, dst.n_slots));
  }

  // --- Templates ----------------------------------------------------------
  //
  // make_*_template precomputes the frame skeleton for a (src, dst) pair;
  // the craft_*_into counterparts patch variant fields into a caller-owned
  // buffer and return the frame length, or 0 if the template kind does not
  // match or `out` is smaller than tpl.frame_size(). `psn` is the sender's
  // per-collector sequence number (the register array of §6); RoCEv2 frames
  // carry its low 24 bits, DTA multiwrite frames all 32.

  // RDMA WRITE of copy `n` of (key, value) into its slot.
  [[nodiscard]] FrameTemplate make_write_template(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src) const;
  // FETCH_ADD / COMPARE_SWAP on one 64-bit word. `op` must be kRcFetchAdd
  // or kRcCompareSwap; anything else yields an invalid template.
  [[nodiscard]] FrameTemplate make_atomic_template(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      rdma::Opcode op) const;
  // §7 SmartNIC extension: ONE frame that fills all N slots of (key,
  // value). Requires the collector RNIC to have DTA multiwrite enabled.
  [[nodiscard]] FrameTemplate make_multiwrite_template(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src) const;

  // DTA translator primitives (primitives.hpp). `dst` is the matching
  // region row from the collector (remote_ring_info() /
  // remote_counter_info() / remote_postcard_info()).
  //
  // Key-Increment frames come from make_atomic_template(kRcFetchAdd) with
  // `dst` = the counter region row; see craft_key_increment_into.
  //
  // Append: WRITE of entry `seq` (the switch's tail value, 1-based) into
  // the ring.
  [[nodiscard]] FrameTemplate make_append_template(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      const AppendRingConfig& ring) const;
  // Postcarding: WRITE of hop `hop` into `flow_key`'s slot group.
  [[nodiscard]] FrameTemplate make_postcard_template(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      const PostcardConfig& postcards) const;

  std::size_t craft_write_into(const FrameTemplate& tpl,
                               std::span<const std::byte> key,
                               std::span<const std::byte> value,
                               std::uint32_t n, std::uint32_t psn,
                               std::span<std::byte> out) const;

  // Same patching as craft_write_into with the slot address (store index,
  // not vaddr) already computed by the caller — the ingest feeder hashes
  // each key once for shard routing and reuses that address here instead of
  // hashing again inside the crafter.
  std::size_t craft_write_into_at(const FrameTemplate& tpl,
                                  std::span<const std::byte> key,
                                  std::span<const std::byte> value,
                                  std::uint64_t slot_addr, std::uint32_t psn,
                                  std::span<std::byte> out) const;

  // One WRITE report of a burst (see craft_write_into_n).
  struct WriteOp {
    std::span<const std::byte> key;
    std::span<const std::byte> value;
    std::uint32_t n = 0;    // slot copy index
    std::uint32_t psn = 0;
  };

  // Burst crafting: emits ops.size() frames back-to-back into `out`
  // (tpl.frame_size() bytes each), batch-hashing the slot addresses of each
  // chunk through HashFamily::address_of_batch so 8-byte keys ride the AVX2
  // XXH64 kernel 4 lanes at a time. Every frame is byte-identical to the
  // corresponding craft_write_into call. Returns the number of frames
  // crafted: ops.size(), or 0 if the template kind does not match or `out`
  // is smaller than ops.size() * tpl.frame_size().
  std::size_t craft_write_into_n(const FrameTemplate& tpl,
                                 std::span<const WriteOp> ops,
                                 std::span<std::byte> out) const;
  std::size_t craft_fetch_add_into(const FrameTemplate& tpl,
                                   std::uint64_t vaddr, std::uint64_t addend,
                                   std::uint32_t psn,
                                   std::span<std::byte> out) const;
  std::size_t craft_compare_swap_into(const FrameTemplate& tpl,
                                      std::uint64_t vaddr,
                                      std::uint64_t compare,
                                      std::uint64_t swap, std::uint32_t psn,
                                      std::span<std::byte> out) const;
  std::size_t craft_multiwrite_into(const FrameTemplate& tpl,
                                    std::span<const std::byte> key,
                                    std::span<const std::byte> value,
                                    std::uint32_t psn,
                                    std::span<std::byte> out) const;
  std::size_t craft_append_into(const FrameTemplate& tpl,
                                const AppendRingConfig& ring,
                                std::uint64_t seq,
                                std::span<const std::byte> value,
                                std::uint32_t psn,
                                std::span<std::byte> out) const;
  // `tpl` must be a kFetchAdd template built for the counter region row.
  std::size_t craft_key_increment_into(const FrameTemplate& tpl,
                                       const CounterArrayConfig& counters,
                                       std::span<const std::byte> key,
                                       std::uint64_t delta, std::uint32_t psn,
                                       std::span<std::byte> out) const;
  // Sketch backend (store_backend.hpp): FETCH_ADD of `delta` on row `row`'s
  // cell of `key` in its geometry; one telemetry report is one such frame
  // per sketch row. `tpl` must be a kFetchAdd template for the sketch row.
  std::size_t craft_sketch_increment_into(const FrameTemplate& tpl,
                                          const CellGeometry& sketch,
                                          std::span<const std::byte> key,
                                          std::uint32_t row,
                                          std::uint64_t delta,
                                          std::uint32_t psn,
                                          std::span<std::byte> out) const;
  std::size_t craft_postcard_into(const FrameTemplate& tpl,
                                  const PostcardConfig& postcards,
                                  std::span<const std::byte> flow_key,
                                  std::uint32_t hop,
                                  std::span<const std::byte> value,
                                  std::uint32_t psn,
                                  std::span<std::byte> out) const;

 private:
  // The shared body of the RETH WRITE fast paths (slot WRITE, Append,
  // Postcard): copy the prototype, patch PSN and `vaddr`, write the payload
  // as the little-endian `tag` in `tag_bytes` bytes (key checksum or Append
  // seq) followed by `value`, then seal the iCRC. The caller checks the
  // template kind and the size of `out`.
  static std::size_t patch_reth_write(const FrameTemplate& tpl,
                                      std::uint64_t vaddr, std::uint32_t psn,
                                      std::uint64_t tag,
                                      std::uint32_t tag_bytes,
                                      std::span<const std::byte> value,
                                      std::span<std::byte> out);

  // The shared tail of every RoCEv2 craft_*_into: resumes the template's
  // cached prefix CRC over the patched variant bytes and stores the iCRC.
  // Returns the frame length.
  static std::size_t seal_icrc(const FrameTemplate& tpl,
                               std::span<std::byte> out);

  DartConfig config_;
  HashFamily hashes_;
};

}  // namespace dart::core
