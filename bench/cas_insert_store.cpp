#include "cas_insert_store.hpp"

#include <cassert>
#include <cstring>

namespace dart::core {

CasInsertStore::CasInsertStore(DartStore& store) : store_(&store) {
  assert(store.config().n_addresses == 2);
  assert(store.config().slot_bytes() >= 8);
}

bool CasInsertStore::slot_empty(std::uint64_t slot_index) const noexcept {
  std::uint64_t word;
  std::memcpy(&word,
              store_->memory().data() + store_->slot_offset(slot_index), 8);
  return word == 0;
}

void CasInsertStore::write(std::span<const std::byte> key,
                           std::span<const std::byte> value) {
  store_->write_one(key, value, 0);  // plain RDMA WRITE

  cas_attempts_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t idx = store_->slot_index(key, 1);
  // Compare(word == 0)-and-claim under the slot's stripe lock: the atomic
  // unit a real RDMA CAS gives us. The full-slot payload write rides inside
  // the claim so a reader never sees a torn half-claimed slot.
  auto& lock = claim_locks_[idx % kClaimStripes];
  while (lock.test_and_set(std::memory_order_acquire)) {
  }
  const bool claimed = slot_empty(idx);
  if (claimed) store_->write_one(key, value, 1);
  lock.clear(std::memory_order_release);
  if (claimed) cas_successes_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace dart::core
