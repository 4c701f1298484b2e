// DTA translator primitives (arXiv 2202.02270) — collector-side storage.
//
// The follow-up paper generalizes DART's single Key-Write trick into a
// primitive set a switch "translator" can emit with one-sided RDMA, still
// with zero collector CPU on the ingest path:
//
//   Append       — RDMA WRITE into a per-collector ring buffer. The switch
//                  keeps the tail pointer (a register array, like the PSN
//                  counters); entry e lands at slot (e-1) mod R. Entries are
//                  self-describing: [ seq : 8B LE | value : V bytes ], so
//                  the collector-side reader can recover write order, detect
//                  wrap-around overwrites, and account for lost reports
//                  without any writer-side coordination.
//
//   Key-Increment— RDMA FETCH_ADD on a 64-bit counter cell addressed by
//                  hash(key). Many switches add into one collector-side
//                  array, so the array is the network-wide aggregate with no
//                  merge step. The array is a one-row cell sheet
//                  (cell_sheet.hpp, CellGeometry::flat) over its own MR;
//                  the sketch backend's count-min cells are the same type.
//
//   Postcarding  — per-hop INT postcards of one flow aggregate into a
//                  contiguous *slot group*: group g = hash(flow) mod G, hop
//                  h writes slot g*H + h. One group read returns the whole
//                  path; a per-hop validity bitmap (stored checksum ==
//                  flow checksum) says which hops have reported.
//
// Every structure is a view over a RegionBacking (store.hpp): self-owning in
// simulations, external over a registered MR on a collector. The local
// mutators (write_entry / fetch_add / write_hop) are the reference semantics
// of the corresponding RDMA op — differential tests drive the wire path
// through the simulated RNIC and assert byte-identical memory.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cell_sheet.hpp"
#include "core/store.hpp"

namespace dart::core {

// ---- geometry --------------------------------------------------------------

struct AppendRingConfig {
  std::uint64_t n_entries = 1024;  // ring capacity R
  std::uint32_t value_bytes = 16;  // payload per entry
  [[nodiscard]] constexpr std::uint32_t entry_bytes() const noexcept {
    return 8 + value_bytes;  // [seq u64 LE | value]
  }
  [[nodiscard]] constexpr std::uint64_t memory_bytes() const noexcept {
    return n_entries * entry_bytes();
  }
  // Ring slot of 1-based sequence number `seq`.
  [[nodiscard]] constexpr std::uint64_t slot_of(std::uint64_t seq) const noexcept {
    return (seq - 1) % n_entries;
  }
  [[nodiscard]] constexpr bool valid() const noexcept {
    return n_entries > 0 && value_bytes > 0;
  }
};

struct CounterArrayConfig {
  std::uint64_t n_counters = 1024;
  std::uint64_t seed = 0;
  [[nodiscard]] constexpr std::uint64_t memory_bytes() const noexcept {
    return n_counters * 8;
  }
  // One row of n_counters cells, hashed with `seed` as given; index_of is
  // the cell owning `key`.
  [[nodiscard]] CellGeometry geometry() const {
    return CellGeometry::flat(n_counters, seed);
  }
  [[nodiscard]] std::uint64_t index_of(std::span<const std::byte> key) const {
    return geometry().cell_of(key, 0);
  }
  [[nodiscard]] constexpr bool valid() const noexcept { return n_counters > 0; }
};

struct PostcardConfig {
  std::uint64_t n_groups = 256;    // G flow groups
  std::uint32_t max_hops = 8;      // H slots per group; bitmap is u32 → ≤ 32
  std::uint32_t checksum_bits = 16;
  std::uint32_t value_bytes = 8;   // INT metadata per hop
  std::uint64_t seed = 0;
  [[nodiscard]] constexpr std::uint32_t checksum_bytes() const noexcept {
    return (checksum_bits + 7) / 8;
  }
  [[nodiscard]] constexpr std::uint32_t slot_bytes() const noexcept {
    return checksum_bytes() + value_bytes;
  }
  [[nodiscard]] constexpr std::uint64_t n_slots() const noexcept {
    return n_groups * max_hops;
  }
  [[nodiscard]] constexpr std::uint64_t memory_bytes() const noexcept {
    return n_slots() * slot_bytes();
  }
  // Group owning `flow_key`, and the flat slot index of one hop of a group.
  [[nodiscard]] std::uint64_t group_of(std::span<const std::byte> flow_key) const noexcept;
  [[nodiscard]] constexpr std::uint64_t slot_index(std::uint64_t group,
                                                   std::uint32_t hop) const noexcept {
    return group * max_hops + hop;
  }
  // b-bit flow checksum stamped into each hop slot (validity evidence).
  [[nodiscard]] std::uint32_t checksum_of(std::span<const std::byte> flow_key) const noexcept;
  [[nodiscard]] constexpr bool valid() const noexcept {
    return n_groups > 0 && max_hops >= 1 && max_hops <= 32 &&
           checksum_bits >= 1 && checksum_bits <= 32 && value_bytes > 0;
  }
};

// One row per primitive; a collector enables all three as a set (each gets
// its own MR-backed region).
struct DtaPrimitivesConfig {
  AppendRingConfig ring;
  CounterArrayConfig counters;
  PostcardConfig postcards;
  [[nodiscard]] constexpr bool valid() const noexcept {
    return ring.valid() && counters.valid() && postcards.valid();
  }
};

// Seeds derived from the deployment master seed, geometry left at defaults.
[[nodiscard]] DtaPrimitivesConfig default_primitives(std::uint64_t master_seed);

// ---- Append ----------------------------------------------------------------

// Collector-side reader over the ring region. The *writer* tail lives on the
// switch (its register array); the reader infers progress from the sequence
// numbers embedded in entries. write_entry is the local reference of the
// switch's RDMA WRITE.
class AppendRing {
 public:
  explicit AppendRing(const AppendRingConfig& config);
  AppendRing(const AppendRingConfig& config, std::span<std::byte> memory);

  [[nodiscard]] const AppendRingConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::span<std::byte> memory() noexcept {
    return backing_.memory();
  }
  [[nodiscard]] std::span<const std::byte> memory() const noexcept {
    return backing_.memory();
  }

  // The exact bytes the wire WRITE carries: seq (8B LE) ‖ value. Appends to
  // `out`; shared with ReportCrafter::craft_append.
  static void encode_entry(std::uint64_t seq, std::span<const std::byte> value,
                           std::vector<std::byte>& out);

  // Local reference of one switch Append: stores entry `seq` (1-based) at
  // slot_of(seq), overwriting whatever was there.
  void write_entry(std::uint64_t seq, std::span<const std::byte> value);

  // Sequence number stored at a ring slot (0 = never written).
  [[nodiscard]] std::uint64_t entry_seq(std::uint64_t slot) const noexcept;

  struct Entry {
    std::uint64_t seq = 0;
    std::vector<std::byte> value;
  };
  struct DrainResult {
    std::vector<Entry> entries;  // ascending seq
    // Sequence numbers the cursor skipped this drain: entries lapped
    // (overwritten) by the writer before we read them, plus reports the
    // network lost. The reader cannot tell the two apart — both are holes
    // in the recovered sequence.
    std::uint64_t missed = 0;
    std::uint64_t next_seq = 0;  // cursor after this drain
  };

  // Collects every unread entry (seq ≥ cursor), oldest first, up to
  // `max_entries`; advances the cursor past what it returns and accounts for
  // the holes it crossed.
  DrainResult drain(std::size_t max_entries = SIZE_MAX);

  [[nodiscard]] std::uint64_t cursor() const noexcept { return next_seq_; }
  [[nodiscard]] std::uint64_t missed_total() const noexcept { return missed_; }

 private:
  AppendRingConfig config_;
  RegionBacking backing_;
  std::uint64_t next_seq_ = 1;  // first sequence number not yet returned
  std::uint64_t missed_ = 0;
};

// ---- Postcarding -----------------------------------------------------------

// Slot-group region: G groups × H hop slots, each slot [checksum | value]
// like a DartStore slot. write_hop is the local reference of the switch's
// postcard WRITE; read_group assembles a flow's path with a validity bitmap.
class PostcardStore {
 public:
  explicit PostcardStore(const PostcardConfig& config);
  PostcardStore(const PostcardConfig& config, std::span<std::byte> memory);

  [[nodiscard]] const PostcardConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::span<std::byte> memory() noexcept {
    return backing_.memory();
  }
  [[nodiscard]] std::span<const std::byte> memory() const noexcept {
    return backing_.memory();
  }

  // The exact bytes the wire WRITE carries: flow checksum (LE, ceil(b/8)
  // bytes) ‖ value. Appends to `out`; shared with craft_postcard.
  static void encode_hop_payload(const PostcardConfig& config,
                                 std::span<const std::byte> flow_key,
                                 std::span<const std::byte> value,
                                 std::vector<std::byte>& out);

  // Local reference of one postcard: hop `hop` of `flow_key`'s group.
  void write_hop(std::span<const std::byte> flow_key, std::uint32_t hop,
                 std::span<const std::byte> value);

  struct GroupView {
    std::uint64_t group = 0;
    // Bit h set iff hop h's stored checksum matches the flow's checksum —
    // evidence (not proof: b-bit collisions exist) that hop h reported.
    std::uint32_t valid_mask = 0;
    std::vector<std::vector<std::byte>> hops;  // H values, valid or not
  };
  [[nodiscard]] GroupView read_group(std::span<const std::byte> flow_key) const;

 private:
  PostcardConfig config_;
  RegionBacking backing_;
};

}  // namespace dart::core
