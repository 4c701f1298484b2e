// Queue pairs and PSN tracking.
//
// DART switches keep one per-collector PSN counter in a register array (§6)
// and send RC WRITE ONLY packets. RC receivers normally enforce strictly
// in-order PSNs; a telemetry receiver cannot afford go-back-N recovery (the
// switch will not retransmit), so the model implements the policy the paper's
// design implies: accept monotonically advancing PSNs, tolerate gaps
// (= lost reports), and drop stale/duplicate PSNs. UC QPs always accept.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/atomic_counter.hpp"
#include "rdma/memory_region.hpp"

namespace dart::rdma {

enum class QpType : std::uint8_t { kRc, kUc };

// PSN acceptance policies for RC.
enum class PsnPolicy : std::uint8_t {
  kStrict,          // require exactly expected PSN (textbook RC)
  kTolerateLoss,    // accept any PSN >= expected (gaps = lost reports)
  kIgnore,          // accept everything (diagnostics)
};

// Counters are RelaxedCounter so one QP can be driven by several shard
// workers at once (the sharded ingest pipeline shares a single report QP).
struct QpCounters {
  RelaxedCounter accepted;
  RelaxedCounter psn_stale;     // duplicate / out-of-window
  RelaxedCounter psn_gaps;      // total PSNs skipped by gaps
  RelaxedCounter error_drops;   // packets refused while in kError
  RelaxedCounter reconnects;    // error → ready transitions
};

// RoCEv2 QP lifecycle, reduced to the two states a one-sided telemetry
// receiver can observe. A real RC QP that hits a fatal receive error moves
// to the Error state, refuses further work until the peer tears it down,
// and is re-created in RTR with a *fresh* starting PSN (IBA v1.5 §9.9.2 —
// reusing the old PSN window would mis-classify the peer's new stream as
// stale/duplicate). The switch side mirrors the reconnect by resetting its
// per-collector PSN register.
enum class QpState : std::uint8_t { kReady, kError };

class QueuePair {
 public:
  QueuePair(std::uint32_t qpn, QpType type, PdHandle pd,
            PsnPolicy policy = PsnPolicy::kTolerateLoss)
      : qpn_(qpn), type_(type), pd_(pd), policy_(policy) {}

  // Copyable so QpRegistry's vector can grow; the copy snapshots the
  // (atomic) PSN window and counters.
  QueuePair(const QueuePair& other) noexcept
      : qpn_(other.qpn_), type_(other.type_), pd_(other.pd_),
        policy_(other.policy_),
        expected_psn_(other.expected_psn_.load(std::memory_order_relaxed)),
        state_(other.state_.load(std::memory_order_relaxed)),
        counters_(other.counters_) {}
  QueuePair& operator=(const QueuePair& other) noexcept {
    qpn_ = other.qpn_;
    type_ = other.type_;
    pd_ = other.pd_;
    policy_ = other.policy_;
    expected_psn_.store(other.expected_psn_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    state_.store(other.state_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    counters_ = other.counters_;
    return *this;
  }

  [[nodiscard]] std::uint32_t qpn() const noexcept { return qpn_; }
  [[nodiscard]] QpType type() const noexcept { return type_; }
  [[nodiscard]] PdHandle pd() const noexcept { return pd_; }
  [[nodiscard]] const QpCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] std::uint32_t expected_psn() const noexcept {
    return expected_psn_.load(std::memory_order_relaxed);
  }

  void set_expected_psn(std::uint32_t psn) noexcept {
    expected_psn_.store(psn & kPsnMask, std::memory_order_relaxed);
  }

  [[nodiscard]] QpState state() const noexcept {
    return state_.load(std::memory_order_relaxed);
  }

  // Moves the QP to the Error state: every subsequent packet is refused
  // (counted in error_drops by the caller) until reconnect().
  void set_error() noexcept {
    state_.store(QpState::kError, std::memory_order_relaxed);
  }

  // Drain-and-reconnect: back to Ready with a fresh expected PSN, as a peer
  // re-establishing the connection would negotiate. Counts the transition.
  void reconnect(std::uint32_t fresh_psn = 0) noexcept {
    expected_psn_.store(fresh_psn & kPsnMask, std::memory_order_relaxed);
    state_.store(QpState::kReady, std::memory_order_relaxed);
    ++counters_.reconnects;
  }

  // Called by the RNIC when a packet arrives while in kError.
  void count_error_drop() noexcept { ++counters_.error_drops; }

  // Validates and advances the PSN window. Returns true if the packet should
  // be executed, and counts it in `accepted`.
  //
  // Thread-safety: under kIgnore (and for UC QPs) this is safe to call from
  // many threads — counters and the (advisory) expected PSN are atomic. The
  // window-tracking policies (kStrict, kTolerateLoss) perform a
  // read-modify-write of the window and assume one caller at a time, which
  // matches their use: per-switch PSN streams terminate on dedicated QPs.
  [[nodiscard]] bool accept_psn(std::uint32_t psn) noexcept {
    if (!admit_psn(psn)) return false;
    ++counters_.accepted;
    return true;
  }

  // accept_psn without the `accepted` bump. The RNIC tallies a burst
  // chunk's admissions per QP and adds them with count_accepted once.
  [[nodiscard]] bool admit_psn(std::uint32_t psn) noexcept;
  void count_accepted(std::uint64_t n) noexcept { counters_.accepted += n; }

 private:
  static constexpr std::uint32_t kPsnMask = 0x00FF'FFFFu;
  // Forward distance in 24-bit PSN space; > half-window means "behind".
  [[nodiscard]] static std::uint32_t psn_distance(std::uint32_t from,
                                                  std::uint32_t to) noexcept {
    return (to - from) & kPsnMask;
  }

  std::uint32_t qpn_;
  QpType type_;
  PdHandle pd_;
  PsnPolicy policy_;
  std::atomic<std::uint32_t> expected_psn_{0};
  std::atomic<QpState> state_{QpState::kReady};
  QpCounters counters_;
};

// QP registry for one RNIC.
class QpRegistry {
 public:
  // Creates a QP with the given number (must be unique).
  Status create(std::uint32_t qpn, QpType type, PdHandle pd,
                PsnPolicy policy = PsnPolicy::kTolerateLoss);

  [[nodiscard]] QueuePair* find(std::uint32_t qpn) noexcept;
  [[nodiscard]] const QueuePair* find(std::uint32_t qpn) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return qps_.size(); }

  // Visits every QP (creation order) — how the observability adapters
  // aggregate per-QP counters without exposing the backing vector.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const QueuePair& qp : qps_) fn(qp);
  }

 private:
  std::vector<QueuePair> qps_;
};

}  // namespace dart::rdma
