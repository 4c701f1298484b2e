#include "rdma/rnic.hpp"

#include <algorithm>
#include <cstring>

#include "rdma/multiwrite.hpp"

namespace dart::rdma {

bool SimulatedRnic::consume_stall() noexcept {
  // Injected stall: a wedged pipeline drops frames before any parsing. The
  // decrement loop (rather than fetch_sub) keeps the count exact when shard
  // workers race on the last few stalled frames.
  for (std::uint64_t left = stall_remaining_.load(std::memory_order_relaxed);
       left > 0;) {
    if (stall_remaining_.compare_exchange_weak(left, left - 1,
                                               std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

std::optional<Completion> SimulatedRnic::process_frame(
    std::span<const std::byte> frame) {
  ++counters_.frames;
  if (consume_stall()) {
    ++counters_.stalled;
    return std::nullopt;
  }
  LookupCache lc;
  return dispatch_classified(classify_wire_frame(frame, validate_icrc_), lc);
}

std::optional<Completion> SimulatedRnic::dispatch_classified(
    const WireClass& cls, LookupCache& lc) {
  using V = WireClass::Verdict;
  switch (cls.verdict) {
    case V::kNotUdp:
      ++counters_.not_roce;
      return std::nullopt;
    case V::kOtherPort:
      if (dta_enabled_ && cls.udp_dst_port == kDtaUdpPort) {
        return execute_multiwrite(cls.udp_payload);
      }
      ++counters_.not_roce;
      return std::nullopt;
    case V::kBadIcrc:
      ++counters_.bad_icrc;
      return std::nullopt;
    case V::kBadRequest:
      ++counters_.bad_opcode;
      return std::nullopt;
    case V::kOk:
      return admit_and_execute(cls.req, lc);
  }
  return std::nullopt;  // unreachable
}

std::optional<Completion> SimulatedRnic::admit_and_execute(
    const RoceRequest& req, LookupCache& lc) {
  QueuePair* qp = find_qp(req.bth.dest_qp, lc);
  if (qp == nullptr) {
    ++counters_.unknown_qp;
    return std::nullopt;
  }
  if (qp->state() == QpState::kError) {
    // An errored RC QP refuses all work until the connection is torn down
    // and re-established (see QpState); the frame is lost by design.
    qp->count_error_drop();
    ++counters_.qp_error;
    return std::nullopt;
  }
  // Opcode transport class must match the QP type.
  const bool uc_op = is_unreliable(req.bth.opcode);
  if ((qp->type() == QpType::kUc) != uc_op) {
    ++counters_.bad_opcode;
    return std::nullopt;
  }
  if (!qp->accept_psn(req.bth.psn)) {
    ++counters_.psn_rejected;
    return std::nullopt;
  }

  auto completion = execute(req, lc);
  if (completion) {
    completion->qpn = qp->qpn();
    // PD check happens inside execute() via the MR; verify it matched the QP.
    ++counters_.executed;
    if (hook_) hook_(*completion);
  }
  return completion;
}

std::size_t SimulatedRnic::process_frames(
    std::span<const std::span<const std::byte>> frames) {
  constexpr std::size_t kBurst = 32;
  std::size_t executed = 0;
  WireClass cls[kBurst];
  bool stalled[kBurst];
  for (std::size_t base = 0; base < frames.size(); base += kBurst) {
    const std::size_t m = std::min(kBurst, frames.size() - base);
    LookupCache lc;

    // Stage 1: stateless classification — header checks, iCRC and request
    // fields — for the whole chunk. No RNIC state is read or written here
    // beyond counters.
    for (std::size_t i = 0; i < m; ++i) {
      ++counters_.frames;
      stalled[i] = consume_stall();
      if (stalled[i]) {
        ++counters_.stalled;
        continue;
      }
      cls[i] = classify_wire_frame(frames[base + i], validate_icrc_);
    }

    // Stage 2: resolve each admitted frame's MR once (memoized) and prefetch
    // the DMA target line, so stage 3's stores hit warm cache. Advisory only;
    // every access check still runs in execute().
    for (std::size_t i = 0; i < m; ++i) {
      if (stalled[i] || cls[i].verdict != WireClass::Verdict::kOk) continue;
      const RoceRequest& req = cls[i].req;
      const bool atomic = is_atomic(req.bth.opcode);
      const std::uint64_t vaddr =
          atomic ? req.atomic_eth->vaddr : req.reth->vaddr;
      const std::uint32_t rkey = atomic ? req.atomic_eth->rkey : req.reth->rkey;
      const std::uint64_t len = atomic ? 8 : req.payload.size();
      const MemoryRegion* mr = find_mr(rkey, lc);
      if (mr != nullptr && mr->contains(vaddr, len)) {
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(mr->at(vaddr), 1);
#endif
      }
    }

    // Stage 3: in-order admission + apply (PSN windows are stateful, so the
    // original frame order is preserved exactly).
    for (std::size_t i = 0; i < m; ++i) {
      if (stalled[i]) continue;
      if (dispatch_classified(cls[i], lc)) ++executed;
    }
  }
  return executed;
}

std::optional<Completion> SimulatedRnic::execute(const RoceRequest& req,
                                                 LookupCache& lc) {
  const bool atomic = is_atomic(req.bth.opcode);
  const std::uint64_t vaddr =
      atomic ? req.atomic_eth->vaddr : req.reth->vaddr;
  const std::uint32_t rkey = atomic ? req.atomic_eth->rkey : req.reth->rkey;
  const std::uint64_t len = atomic ? 8 : req.payload.size();

  const MemoryRegion* mr = find_mr(rkey, lc);
  if (mr == nullptr) {
    ++counters_.bad_rkey;
    return std::nullopt;
  }
  QueuePair* qp = find_qp(req.bth.dest_qp, lc);
  if (qp != nullptr && qp->pd() != mr->pd) {
    ++counters_.pd_mismatch;
    return std::nullopt;
  }
  const Access want = atomic ? Access::kRemoteAtomic : Access::kRemoteWrite;
  if (!has_access(mr->access, want)) {
    ++counters_.access_denied;
    return std::nullopt;
  }
  if (!mr->contains(vaddr, len)) {
    ++counters_.out_of_bounds;
    return std::nullopt;
  }

  Completion c{};
  c.opcode = req.bth.opcode;
  c.vaddr = vaddr;
  c.length = static_cast<std::uint32_t>(len);

  if (!atomic) {
    std::memcpy(mr->at(vaddr), req.payload.data(), req.payload.size());
    ++counters_.writes;
    return c;
  }

  // Atomics operate on naturally aligned 64-bit words, big-endian on the
  // wire, host-endian in memory (the collector reads them natively).
  if ((vaddr & 0x7u) != 0) {
    ++counters_.unaligned_atomic;
    return std::nullopt;
  }
  std::uint64_t prior;
  std::memcpy(&prior, mr->at(vaddr), 8);
  c.atomic_prior = prior;

  if (req.bth.opcode == Opcode::kRcFetchAdd) {
    const std::uint64_t next = prior + req.atomic_eth->swap_add;
    std::memcpy(mr->at(vaddr), &next, 8);
    ++counters_.fetch_adds;
  } else {  // CompareSwap
    ++counters_.compare_swaps;
    if (prior == req.atomic_eth->compare) {
      std::memcpy(mr->at(vaddr), &req.atomic_eth->swap_add, 8);
    } else {
      ++counters_.cas_mismatches;
    }
  }
  return c;
}

std::optional<Completion> SimulatedRnic::execute_multiwrite(
    std::span<const std::byte> udp_payload) {
  const auto mw = parse_multiwrite(udp_payload);
  if (!mw) {
    ++counters_.bad_icrc;  // CRC/format failure, same class as a bad iCRC
    return std::nullopt;
  }
  const MemoryRegion* mr = memory_.find_by_rkey(mw->rkey);
  if (mr == nullptr) {
    ++counters_.bad_rkey;
    return std::nullopt;
  }
  if (!has_access(mr->access, Access::kRemoteWrite)) {
    ++counters_.access_denied;
    return std::nullopt;
  }
  // All-or-nothing: validate every target before the first DMA, so a bad
  // address cannot leave a half-applied group.
  for (const auto vaddr : mw->vaddrs) {
    if (!mr->contains(vaddr, mw->payload.size())) {
      ++counters_.out_of_bounds;
      return std::nullopt;
    }
  }
  for (const auto vaddr : mw->vaddrs) {
    std::memcpy(mr->at(vaddr), mw->payload.data(), mw->payload.size());
    ++counters_.writes;
  }
  ++counters_.multiwrite_frames;
  ++counters_.executed;

  Completion c{};
  c.opcode = Opcode::kRcRdmaWriteOnly;  // closest CQE analogue
  c.vaddr = mw->vaddrs.front();
  c.length = static_cast<std::uint32_t>(mw->payload.size() * mw->vaddrs.size());
  if (hook_) hook_(c);
  return c;
}

void SimulatedRnic::receive(net::Packet packet, std::uint64_t /*now_ns*/) {
  (void)process_frame(packet.bytes());
}

}  // namespace dart::rdma
