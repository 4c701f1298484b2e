#include "rdma/qp.hpp"

#include <algorithm>

namespace dart::rdma {

bool QueuePair::admit_psn(std::uint32_t psn) noexcept {
  psn &= kPsnMask;
  if (type_ == QpType::kUc || policy_ == PsnPolicy::kIgnore) {
    expected_psn_.store((psn + 1) & kPsnMask, std::memory_order_relaxed);
    return true;
  }

  const std::uint32_t expected = expected_psn_.load(std::memory_order_relaxed);
  const std::uint32_t ahead = psn_distance(expected, psn);
  constexpr std::uint32_t kHalfWindow = 0x0080'0000u;

  if (policy_ == PsnPolicy::kStrict) {
    if (psn != expected) {
      ++counters_.psn_stale;
      return false;
    }
    expected_psn_.store((expected + 1) & kPsnMask, std::memory_order_relaxed);
    return true;
  }

  // kTolerateLoss: accept anything in the forward half-window. `ahead` is
  // computed modulo 2^24, so a gap that straddles the wraparound (expected
  // 0xFFFFFF, received 0x000001) still counts exactly the PSNs in
  // [expected, psn) — the reports that were lost — with no off-by-one.
  if (ahead >= kHalfWindow) {
    ++counters_.psn_stale;  // behind us: duplicate or badly delayed
    return false;
  }
  if (ahead != 0) counters_.psn_gaps += ahead;  // `ahead` reports were lost
  expected_psn_.store((psn + 1) & kPsnMask, std::memory_order_relaxed);
  return true;
}

Status QpRegistry::create(std::uint32_t qpn, QpType type, PdHandle pd,
                          PsnPolicy policy) {
  if (find(qpn) != nullptr) {
    return Error{"qp_exists", "queue pair number already in use"};
  }
  if (qpn > 0x00FF'FFFFu) {
    return Error{"bad_qpn", "queue pair numbers are 24-bit"};
  }
  qps_.emplace_back(qpn, type, pd, policy);
  return {};
}

QueuePair* QpRegistry::find(std::uint32_t qpn) noexcept {
  const auto it = std::find_if(qps_.begin(), qps_.end(),
                               [&](const QueuePair& qp) { return qp.qpn() == qpn; });
  return it == qps_.end() ? nullptr : &*it;
}

const QueuePair* QpRegistry::find(std::uint32_t qpn) const noexcept {
  return const_cast<QpRegistry*>(this)->find(qpn);
}

}  // namespace dart::rdma
