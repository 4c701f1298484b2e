// CasInsertStore — §7's Compare & Swap insertion, behind bench/ablation_cas.
//
// "for N = 2 hashes and an initially empty table, we can use an RDMA write
// with one hash and Compare & Swap with another (writing to a second slot
// only if it is empty)". Copy 0 is a plain overwrite; copy 1 is written only
// when currently empty, so a hot second slot stops being churned by later
// keys. The CAS is modeled on the first 8 bytes of the slot (an RDMA CAS
// operates on one aligned 64-bit word): a slot is "empty" iff that word is
// zero. The ablation_cas bench, its one program, quantifies the
// queryability gain.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>

#include "core/store.hpp"

namespace dart::core {

class CasInsertStore {
 public:
  // `store` must have n_addresses == 2 and slot_bytes >= 8.
  explicit CasInsertStore(DartStore& store);

  // Copy 0: WRITE (overwrite). Copy 1: CAS-if-empty.
  //
  // The empty-check and the claim are one atomic step, as on a real RNIC
  // (which serializes atomics against the target memory): two writers racing
  // for one empty slot resolve to exactly one CAS success. Checking
  // slot_empty() and then writing — the original implementation — let both
  // writers observe "empty" and both count a success. Slot claims are
  // serialized per slot stripe; slot words are not required to be 8-byte
  // aligned (slot_bytes is often 12), which rules out std::atomic_ref here.
  void write(std::span<const std::byte> key, std::span<const std::byte> value);

  [[nodiscard]] std::uint64_t cas_attempts() const noexcept {
    return cas_attempts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cas_successes() const noexcept {
    return cas_successes_.load(std::memory_order_relaxed);
  }

  // True iff the CAS word (first 8 bytes) of `slot_index` is zero.
  [[nodiscard]] bool slot_empty(std::uint64_t slot_index) const noexcept;

 private:
  static constexpr std::size_t kClaimStripes = 64;

  DartStore* store_;
  std::atomic<std::uint64_t> cas_attempts_{0};
  std::atomic<std::uint64_t> cas_successes_{0};
  // Per-stripe claim locks modeling the RNIC's atomic-op serialization.
  mutable std::array<std::atomic_flag, kClaimStripes> claim_locks_{};
};

}  // namespace dart::core
