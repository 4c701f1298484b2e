// SimulatedRnic — the collector-side RDMA NIC.
//
// The paper's central claim is architectural: the collector's CPU never
// touches a telemetry report; the NIC parses the RoCEv2 request and DMAs the
// payload straight into registered memory (§2, §3.1). This class is that
// NIC. It implements, in software, the exact request-validation pipeline a
// hardware RNIC applies to an inbound one-sided operation:
//
//   UDP port 4791 → iCRC check → QP lookup → PSN window → rkey lookup →
//   PD match → access-flag check → bounds check → DMA / atomic execute.
//
// Every frame, one at a time or in a burst, takes one receive path:
// rdma::classify_wire_frame decides the steps up to the request parse in a
// single pass (roce.hpp lists its verdicts), and the RNIC counts or executes
// what it returns. The layered decode is its reference in
// src/check/reference_roce.hpp.
//
// Every rejection is counted (the counters drive tests and the robustness
// bench). The RNIC is also a net::Node so it can terminate links in the
// fabric simulator; the baselines in src/baseline deliberately do all of
// this work on "the CPU" instead, which is the Fig. 1 comparison.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "common/atomic_counter.hpp"
#include "common/result.hpp"
#include "net/netsim.hpp"
#include "rdma/memory_region.hpp"
#include "rdma/qp.hpp"
#include "rdma/roce.hpp"

namespace dart::rdma {

// All counters are RelaxedCounter: the sharded ingest pipeline drives one
// RNIC from several shard workers concurrently (a hardware RNIC services
// many DMA engines the same way), so the statistics must tolerate parallel
// increments without a data race.
struct RnicCounters {
  RelaxedCounter frames;          // frames seen
  RelaxedCounter executed;        // operations applied to memory
  RelaxedCounter writes;
  RelaxedCounter multiwrite_frames;  // §7 DTA multiwrite frames executed
  RelaxedCounter fetch_adds;
  RelaxedCounter compare_swaps;
  RelaxedCounter cas_mismatches;  // CAS executed but compare failed
  RelaxedCounter not_roce;        // not UDP/4791 or unparsable frame
  RelaxedCounter bad_icrc;
  RelaxedCounter bad_opcode;
  RelaxedCounter unknown_qp;
  RelaxedCounter psn_rejected;
  RelaxedCounter bad_rkey;
  RelaxedCounter pd_mismatch;
  RelaxedCounter access_denied;
  RelaxedCounter out_of_bounds;
  RelaxedCounter unaligned_atomic;
  RelaxedCounter stalled;         // dropped during an injected RNIC stall
  RelaxedCounter qp_error;        // refused: target QP in the Error state
};

// Completion record for an executed operation (what a CQE would carry).
struct Completion {
  Opcode opcode;
  std::uint32_t qpn;
  std::uint64_t vaddr;
  std::uint32_t length;        // bytes written (WRITE) or 8 (atomics)
  std::uint64_t atomic_prior;  // original value at vaddr for atomics
};

class SimulatedRnic : public net::Node {
 public:
  explicit SimulatedRnic(std::uint64_t rkey_seed = 0x5EED)
      : memory_(rkey_seed) {}

  // --- Verbs-like control-plane API (collector host calls these) ---------
  [[nodiscard]] PdHandle alloc_pd() { return memory_.alloc_pd(); }

  [[nodiscard]] Result<MemoryRegion> register_mr(PdHandle pd,
                                                 std::span<std::byte> buffer,
                                                 std::uint64_t base_vaddr,
                                                 Access access) {
    return memory_.register_mr(pd, buffer, base_vaddr, access);
  }

  Status create_qp(std::uint32_t qpn, QpType type, PdHandle pd,
                   PsnPolicy policy = PsnPolicy::kTolerateLoss) {
    return qps_.create(qpn, type, pd, policy);
  }

  // --- Data plane ---------------------------------------------------------

  // Processes one Ethernet frame. Returns the completion if an operation was
  // executed; counters explain every rejection.
  //
  // Thread-safety: concurrent calls are safe provided (a) the control plane
  // (register_mr / create_qp / set_*) is quiescent, (b) target QPs use
  // PsnPolicy::kIgnore or are driven by one thread each (see
  // QueuePair::accept_psn), and (c) callers do not issue overlapping writes
  // to the same bytes — the discipline the sharded ingest pipeline enforces
  // by routing frames to shard workers by slot-address range. This mirrors
  // hardware: an RNIC runs many DMA engines against one memory map.
  std::optional<Completion> process_frame(std::span<const std::byte> frame);

  // Batch entry point: processes `frames` in order and returns how many
  // executed an operation (the per-frame verdicts land in counters(), same
  // as process_frame). This is how the shard workers hand over a whole ring
  // drain in one call — the batch analogue of an RNIC pulling a doorbell'd
  // chain of receive descriptors. Internally the batch runs in staged chunks:
  // stateless classification (classify_wire_frame) for the whole chunk,
  // then MR resolution with software prefetch of the DMA target lines, then
  // in-order admission and apply (PSN windows are stateful, so ordering is
  // preserved exactly). Verdicts and counters are identical to calling
  // process_frame per frame.
  std::size_t process_frames(std::span<const std::span<const std::byte>> frames);

  // net::Node — frames delivered by the fabric simulator.
  void receive(net::Packet packet, std::uint64_t now_ns) override;

  // Optional hook invoked after every executed operation (collectors use it
  // to track ingest statistics without touching the data path).
  void set_completion_hook(std::function<void(const Completion&)> hook) {
    hook_ = std::move(hook);
  }

  [[nodiscard]] const RnicCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const QpRegistry& qps() const noexcept { return qps_; }
  // Mutable QP access for the recovery control plane (fault injection and
  // the collector's drain/reconnect path); nullptr if no such QPN.
  [[nodiscard]] QueuePair* qp(std::uint32_t qpn) noexcept {
    return qps_.find(qpn);
  }

  // --- fault injection (src/fault) ----------------------------------------

  // Drops the next `frames` inbound frames on the floor (counted as
  // `stalled`), modelling a wedged RNIC pipeline / PCIe back-pressure stall.
  // Zero-cost when disarmed: the fast path tests one relaxed load that is 0.
  void stall(std::uint64_t frames) noexcept {
    stall_remaining_.store(frames, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stall_remaining() const noexcept {
    return stall_remaining_.load(std::memory_order_relaxed);
  }

  // Toggles iCRC validation (on by default). The ablation bench measures the
  // cost and the protection it buys against corrupted reports.
  void set_validate_icrc(bool v) noexcept { validate_icrc_ = v; }

  // Enables the §7 SmartNIC DTA-multiwrite extension (one frame → N DMAs).
  // Off by default: stock RNICs only speak RoCEv2.
  void set_dta_multiwrite(bool v) noexcept { dta_enabled_ = v; }
  [[nodiscard]] bool dta_multiwrite_enabled() const noexcept {
    return dta_enabled_;
  }

 private:
  // rkey→MR / qpn→QP resolution memo for one burst. find_by_rkey is a linear
  // registry scan and the reports in a burst overwhelmingly target one MR
  // through one QP, so process_frames resolves each distinct key once per
  // chunk. Single-frame calls use a fresh cache, which makes the memoized
  // path behave identically (the control plane is quiescent during data-path
  // calls — see the thread-safety note on process_frame).
  struct LookupCache {
    std::uint32_t rkey = 0;
    const MemoryRegion* mr = nullptr;
    bool mr_set = false;
    std::uint32_t qpn = 0;
    QueuePair* qp = nullptr;
    bool qp_set = false;
  };

  [[nodiscard]] const MemoryRegion* find_mr(std::uint32_t rkey,
                                            LookupCache& lc) {
    if (!lc.mr_set || lc.rkey != rkey) {
      lc.mr = memory_.find_by_rkey(rkey);
      lc.rkey = rkey;
      lc.mr_set = true;
    }
    return lc.mr;
  }
  [[nodiscard]] QueuePair* find_qp(std::uint32_t qpn, LookupCache& lc) {
    if (!lc.qp_set || lc.qpn != qpn) {
      lc.qp = qps_.find(qpn);
      lc.qpn = qpn;
      lc.qp_set = true;
    }
    return lc.qp;
  }

  // True if this frame was eaten by an injected stall (counts it too).
  [[nodiscard]] bool consume_stall() noexcept;

  // Routes a classification verdict to counters / execution: a frame that
  // is no UDP datagram, or one to a port that is neither 4791 nor the
  // enabled DTA port, counts as not_roce.
  std::optional<Completion> dispatch_classified(const WireClass& cls,
                                                LookupCache& lc);
  // QP admission (state / transport class / PSN window) then execute.
  std::optional<Completion> admit_and_execute(const RoceRequest& req,
                                              LookupCache& lc);
  std::optional<Completion> execute(const RoceRequest& req, LookupCache& lc);
  std::optional<Completion> execute_multiwrite(
      std::span<const std::byte> udp_payload);

  MemoryRegistry memory_;
  QpRegistry qps_;
  RnicCounters counters_;
  std::function<void(const Completion&)> hook_;
  std::atomic<std::uint64_t> stall_remaining_{0};
  bool validate_icrc_ = true;
  bool dta_enabled_ = false;
};

}  // namespace dart::rdma
