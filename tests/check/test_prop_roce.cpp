// The RNIC's RoCEv2 receive path against the layered reference in
// src/check/reference_roce:
//
// - decode: rdma::classify_wire_frame, with the iCRC checked and not, must
//   give the reference's verdict, UDP port and payload view, and, for a
//   request, every BTH, RETH and AtomicETH field, the payload view and the
//   carried iCRC.
// - ingest: four SimulatedRnics (iCRC validation on and off, DTA multiwrite
//   on and off) take every frame. Each must move exactly the counter the
//   reference decode predicts (not_roce, bad_icrc, bad_opcode, or for a
//   request or a DTA frame the admission outcome of its queue pair and
//   memory region), execute exactly those frames, report the request's
//   completion and leave memory as the request dictates. A second set of
//   four takes the case's frames as one process_frames burst and must end
//   with the same counters and memory.
// - prefix: rdma::icrc_prefix_state resumed over the bytes from
//   kIcrcVariantOffset to the iCRC slot gives the reference iCRC.
//
// Each case builds one frame: an RC or UC WRITE with 0-3,000 payload bytes,
// a FETCH_ADD, a COMPARE_SWAP, a DTA multiwrite or a plain datagram, over
// UDP or TCP, to port 4791, the DTA port or another. It then derives the
// frames to feed by one kind of damage: none; each header byte flipped with
// the IPv4 checksum and the iCRC left stale or made valid again; non-zero
// IPv4 flags and fragment offset; every protocol value; UDP lengths 0-40,
// around the exact one and random; truncations; trailing bytes; runt
// payloads of 0-15 bytes; or flips anywhere in the payload.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "check/property.hpp"
#include "check/reference_headers.hpp"
#include "check/reference_roce.hpp"
#include "rdma/multiwrite.hpp"
#include "rdma/rnic.hpp"
#include "rdma/roce.hpp"

namespace dart::check {
namespace {

using V = ReferenceDecode::Verdict;

constexpr std::size_t kIp = net::kEthernetHeaderLen;
constexpr std::size_t kL4 = kIp + net::kIpv4HeaderLen;
constexpr std::uint64_t kBase = 0x0000'1000'0000'0000ull;
constexpr std::size_t kMrBytes = 8192;
constexpr std::uint32_t kRcQpn = 0x000111;
constexpr std::uint32_t kUcQpn = 0x000222;

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

enum class Shape : std::uint8_t {
  kRcWrite,
  kUcWrite,
  kFetchAdd,
  kCompareSwap,
  kMultiwrite,
  kDatagram,
  kCount,
};

bool is_roce(Shape s) { return s <= Shape::kCompareSwap; }

net::MacAddr gen_mac(Rng& rng) {
  net::MacAddr mac{};
  const auto b = rng.bytes(mac.size());
  std::ranges::transform(b, mac.begin(), [](std::byte x) {
    return std::to_integer<std::uint8_t>(x);
  });
  return mac;
}

// 0-3,000 bytes: a third short, a fifth past what fits a 1,536-byte frame.
std::size_t gen_length(Rng& rng) {
  if (rng.chance(0.2)) return rng.range(1500, 3000);
  if (rng.chance(0.4)) return rng.below(65);
  return rng.below(1500);
}

// Mostly a target inside the memory region, sometimes one straddling its
// end or anywhere at all; atomics are mostly 8-byte aligned.
std::uint64_t gen_vaddr(Rng& rng, std::size_t len, bool atomic) {
  if (rng.chance(0.1)) return kBase + kMrBytes - rng.below(len + 16);
  if (rng.chance(0.05)) return rng.u64();
  std::uint64_t off = rng.below(kMrBytes - std::min(len, kMrBytes) + 1);
  if (atomic && !rng.chance(0.1)) off &= ~std::uint64_t{7};
  return kBase + off;
}

std::uint32_t gen_rkey(Rng& rng, std::uint32_t rkey) {
  return rng.chance(0.1) ? static_cast<std::uint32_t>(rng.u64()) : rkey;
}

std::vector<std::byte> gen_roce_payload(Rng& rng, Shape shape,
                                        std::uint32_t rkey) {
  rdma::Bth bth;
  bth.solicited = rng.chance(0.5);
  bth.mig_req = rng.chance(0.5);
  bth.pad_count = static_cast<std::uint8_t>(rng.below(4));
  bth.pkey = static_cast<std::uint16_t>(rng.u64());
  bth.ack_req = rng.chance(0.5);
  bth.psn = static_cast<std::uint32_t>(rng.u64());
  bth.dest_qp = shape == Shape::kUcWrite ? kUcQpn : kRcQpn;
  if (rng.chance(0.1)) bth.dest_qp = static_cast<std::uint32_t>(rng.u64());

  std::vector<std::byte> out;
  BufWriter w(out);
  if (shape == Shape::kRcWrite || shape == Shape::kUcWrite) {
    bth.opcode = shape == Shape::kRcWrite ? rdma::Opcode::kRcRdmaWriteOnly
                                          : rdma::Opcode::kUcRdmaWriteOnly;
    const auto payload = rng.bytes(gen_length(rng));
    rdma::Reth reth;
    reth.vaddr = gen_vaddr(rng, payload.size(), false);
    reth.rkey = gen_rkey(rng, rkey);
    reth.dma_length = static_cast<std::uint32_t>(payload.size());
    if (rng.chance(0.05)) reth.dma_length += rng.range(1, 8);
    (void)rdma::serialize_write(w, bth, reth, payload);
  } else {
    bth.opcode = shape == Shape::kFetchAdd ? rdma::Opcode::kRcFetchAdd
                                           : rdma::Opcode::kRcCompareSwap;
    rdma::AtomicEth aeth;
    aeth.vaddr = gen_vaddr(rng, 8, true);
    aeth.rkey = gen_rkey(rng, rkey);
    aeth.swap_add = rng.u64();
    aeth.compare = rng.chance(0.5) ? 0 : rng.u64();
    (void)rdma::serialize_atomic(w, bth, aeth);
  }
  return out;
}

std::vector<std::byte> gen_multiwrite_payload(Rng& rng, std::uint32_t rkey) {
  const auto data = rng.bytes(rng.chance(0.1) ? rng.range(1500, 2000)
                                              : rng.below(65));
  std::vector<std::uint64_t> vaddrs(1 + rng.below(4));
  for (auto& v : vaddrs) v = gen_vaddr(rng, data.size(), false);
  return rdma::encode_multiwrite(gen_rkey(rng, rkey),
                                 static_cast<std::uint32_t>(rng.u64()), vaddrs,
                                 data);
}

std::uint16_t gen_port(Rng& rng, Shape shape) {
  const auto other = [&rng] {
    auto p = static_cast<std::uint16_t>(rng.u64());
    if (p == net::kRoceV2UdpPort || p == rdma::kDtaUdpPort) ++p;
    return p;
  };
  const std::uint16_t usual = is_roce(shape)              ? net::kRoceV2UdpPort
                              : shape == Shape::kMultiwrite ? rdma::kDtaUdpPort
                                                            : other();
  if (rng.chance(0.7)) return usual;
  switch (rng.below(3)) {
    case 0:
      return net::kRoceV2UdpPort;
    case 1:
      return rdma::kDtaUdpPort;
    default:
      return other();
  }
}

void put16(std::vector<std::byte>& f, std::size_t at, std::uint16_t v) {
  f[at] = static_cast<std::byte>(v >> 8);
  f[at + 1] = static_cast<std::byte>(v & 0xFF);
}

void fix_ip_checksum(std::vector<std::byte>& f) {
  if (f.size() < kL4) return;
  put16(f, kIp + 10, 0);
  put16(f, kIp + 10,
        reference_internet_checksum(
            std::span(f).subspan(kIp, net::kIpv4HeaderLen)));
}

// Recomputes the iCRC where the reference can place it; otherwise leaves
// the frame alone.
void refresh_icrc(std::vector<std::byte>& f) {
  (void)reference_finalize_frame_icrc(f);
}

std::vector<std::byte> gen_frame(Rng& rng, std::uint32_t rkey) {
  const auto shape =
      static_cast<Shape>(rng.below(static_cast<int>(Shape::kCount)));
  net::UdpFrameSpec spec;
  spec.src_mac = gen_mac(rng);
  spec.dst_mac = gen_mac(rng);
  spec.src_ip.value = static_cast<std::uint32_t>(rng.u64());
  spec.dst_ip.value = static_cast<std::uint32_t>(rng.u64());
  spec.src_port = static_cast<std::uint16_t>(rng.u64());
  spec.dst_port = gen_port(rng, shape);
  spec.ttl = static_cast<std::uint8_t>(rng.below(256));
  spec.dscp = static_cast<std::uint8_t>(rng.below(64));
  spec.protocol = rng.chance(0.25) ? net::kIpProtoTcp : net::kIpProtoUdp;

  std::vector<std::byte> payload;
  switch (shape) {
    case Shape::kMultiwrite:
      payload = gen_multiwrite_payload(rng, rkey);
      break;
    case Shape::kDatagram:
      payload = rng.bytes(gen_length(rng));
      break;
    default:
      payload = gen_roce_payload(rng, shape, rkey);
      break;
  }
  auto frame = reference_build_udp_frame(spec, payload);
  // A datagram sometimes carries a valid iCRC over its random bytes, so a
  // garbage BTH reaches the request parse.
  if (is_roce(shape) || rng.chance(0.5)) refresh_icrc(frame);
  return frame;
}

enum class Damage : std::uint8_t {
  kNone,
  kHeaderBytes,
  kFlagsFragment,
  kEveryProtocol,
  kUdpLength,
  kTruncations,
  kTrailingBytes,
  kRunt,
  kPayloadFlips,
  kCount,
};

// The frames one case feeds: `base` damaged one way, in one or more
// variants.
std::vector<std::vector<std::byte>> damaged(Rng& rng,
                                            const std::vector<std::byte>& base,
                                            Damage damage) {
  std::vector<std::vector<std::byte>> out;
  const bool refix = rng.chance(0.5);
  const bool refresh = rng.chance(0.5);
  switch (damage) {
    case Damage::kNone:
      out.push_back(base);
      break;
    case Damage::kHeaderBytes: {
      // Ethernet, IPv4, UDP, BTH and the RETH or AtomicETH.
      const std::size_t n =
          std::min(base.size(), net::kUdpFrameHeaderLen + rdma::kBthLen +
                                    rdma::kAtomicEthLen);
      for (std::size_t i = 0; i < n; ++i) {
        auto f = base;
        f[i] ^= static_cast<std::byte>(rng.range(1, 255));
        if (refix && i != kIp + 10 && i != kIp + 11) fix_ip_checksum(f);
        if (refresh) refresh_icrc(f);
        out.push_back(std::move(f));
      }
      break;
    }
    case Damage::kFlagsFragment:
      for (int v = 0; v < 4; ++v) {
        auto f = base;
        auto word = static_cast<std::uint16_t>(rng.u64());
        if (word == 0) word = 0x4000;  // DF
        put16(f, kIp + 6, word);
        fix_ip_checksum(f);
        if (refresh || v % 2 == 1) refresh_icrc(f);
        out.push_back(std::move(f));
      }
      break;
    case Damage::kEveryProtocol:
      for (unsigned p = 0; p < 256; ++p) {
        auto f = base;
        f[kIp + 9] = static_cast<std::byte>(p);
        fix_ip_checksum(f);
        if (refresh) refresh_icrc(f);
        out.push_back(std::move(f));
      }
      break;
    case Damage::kUdpLength: {
      const std::size_t exact = base.size() - kL4;
      std::vector<std::size_t> lengths;
      for (std::size_t len = 0; len <= 40; ++len) lengths.push_back(len);
      lengths.insert(lengths.end(), {exact - 1, exact, exact + 1,
                                     rng.below(0x10000)});
      for (const std::size_t len : lengths) {
        auto f = base;
        put16(f, kL4 + 4, static_cast<std::uint16_t>(len));
        if (refresh) refresh_icrc(f);
        out.push_back(std::move(f));
      }
      break;
    }
    case Damage::kTruncations: {
      const std::size_t head = std::min<std::size_t>(base.size(), 96);
      const auto cut = [&base](std::size_t n) {
        const auto end = base.begin() + static_cast<std::ptrdiff_t>(n);
        return std::vector<std::byte>(base.begin(), end);
      };
      for (std::size_t n = 0; n < head; ++n) out.push_back(cut(n));
      for (int i = 0; i < 16 && base.size() > head; ++i) {
        out.push_back(cut(rng.range(head, base.size() - 1)));
      }
      break;
    }
    case Damage::kTrailingBytes: {
      auto f = base;
      const auto tail = rng.bytes(rng.range(1, 64));
      f.insert(f.end(), tail.begin(), tail.end());
      out.push_back(std::move(f));
      break;
    }
    case Damage::kRunt:
      // A UDP payload with no room for BTH + iCRC; the frame cut to it or
      // not.
      for (std::size_t len = 0; len < rdma::kBthLen + rdma::kIcrcLen; ++len) {
        auto f = base;
        put16(f, kL4 + 4,
              static_cast<std::uint16_t>(net::kUdpHeaderLen + len));
        if (refix) f.resize(std::min(f.size(), net::kUdpFrameHeaderLen + len));
        out.push_back(std::move(f));
      }
      break;
    case Damage::kPayloadFlips: {
      if (base.size() <= net::kUdpFrameHeaderLen) {
        out.push_back(base);
        break;
      }
      for (int v = 0; v < 3; ++v) {
        auto f = base;
        for (std::uint64_t k = rng.range(1, 3); k > 0; --k) {
          f[rng.range(net::kUdpFrameHeaderLen, f.size() - 1)] ^=
              static_cast<std::byte>(1u << rng.below(8));
        }
        if (refresh && v == 2) refresh_icrc(f);
        out.push_back(std::move(f));
      }
      break;
    }
    case Damage::kCount:
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

const char* verdict_name(V v) {
  switch (v) {
    case V::kNotUdp:
      return "not-udp";
    case V::kOtherPort:
      return "other-port";
    case V::kBadIcrc:
      return "bad-icrc";
    case V::kBadRequest:
      return "bad-request";
    case V::kOk:
      return "ok";
  }
  return "?";
}

std::optional<std::string> request_mismatch(const rdma::RoceRequest& got,
                                            const rdma::RoceRequest& want) {
  const auto field = [](const char* name) {
    return std::optional<std::string>(std::string("request field ") + name +
                                      " differs");
  };
  if (got.bth.opcode != want.bth.opcode) return field("bth.opcode");
  if (got.bth.solicited != want.bth.solicited) return field("bth.solicited");
  if (got.bth.mig_req != want.bth.mig_req) return field("bth.mig_req");
  if (got.bth.pad_count != want.bth.pad_count) return field("bth.pad_count");
  if (got.bth.pkey != want.bth.pkey) return field("bth.pkey");
  if (got.bth.dest_qp != want.bth.dest_qp) return field("bth.dest_qp");
  if (got.bth.ack_req != want.bth.ack_req) return field("bth.ack_req");
  if (got.bth.psn != want.bth.psn) return field("bth.psn");
  if (got.reth.has_value() != want.reth.has_value()) return field("reth");
  if (got.reth) {
    if (got.reth->vaddr != want.reth->vaddr) return field("reth.vaddr");
    if (got.reth->rkey != want.reth->rkey) return field("reth.rkey");
    if (got.reth->dma_length != want.reth->dma_length) {
      return field("reth.dma_length");
    }
  }
  if (got.atomic_eth.has_value() != want.atomic_eth.has_value()) {
    return field("atomic_eth");
  }
  if (got.atomic_eth) {
    if (got.atomic_eth->vaddr != want.atomic_eth->vaddr) {
      return field("atomic_eth.vaddr");
    }
    if (got.atomic_eth->rkey != want.atomic_eth->rkey) {
      return field("atomic_eth.rkey");
    }
    if (got.atomic_eth->swap_add != want.atomic_eth->swap_add) {
      return field("atomic_eth.swap_add");
    }
    if (got.atomic_eth->compare != want.atomic_eth->compare) {
      return field("atomic_eth.compare");
    }
  }
  if (got.payload.data() != want.payload.data() ||
      got.payload.size() != want.payload.size()) {
    return field("payload");
  }
  if (got.icrc != want.icrc) return field("icrc");
  return std::nullopt;
}

// Where classify_wire_frame and the reference disagree on `frame`. A frame
// the classifier calls no UDP datagram is left to the ingest property,
// which sees the RNIC count it.
std::optional<std::string> decode_mismatch(std::span<const std::byte> frame,
                                           bool check_icrc,
                                           const ReferenceDecode& want) {
  using W = rdma::WireClass::Verdict;
  const auto got = rdma::classify_wire_frame(frame, check_icrc);
  V as;
  switch (got.verdict) {
    case W::kOtherPort:
      as = V::kOtherPort;
      break;
    case W::kBadIcrc:
      as = V::kBadIcrc;
      break;
    case W::kBadRequest:
      as = V::kBadRequest;
      break;
    case W::kOk:
      as = V::kOk;
      break;
    default:
      return std::nullopt;
  }
  const std::string where = std::string(check_icrc ? "(iCRC checked) " : "") +
                            std::to_string(frame.size()) + "-byte frame: ";
  if (as != want.verdict) {
    return where + "classifier says " + verdict_name(as) + ", reference " +
           verdict_name(want.verdict);
  }
  if (got.udp_dst_port != want.udp_dst_port) return where + "UDP port differs";
  if (got.udp_payload.data() != want.udp_payload.data() ||
      got.udp_payload.size() != want.udp_payload.size()) {
    return where + "UDP payload differs";
  }
  if (as == V::kOk) {
    if (auto why = request_mismatch(got.req, *want.req)) return where + *why;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------------

// The counters a frame can move, one per outcome.
enum class Outcome : std::uint8_t {
  kNotRoce,
  kBadIcrc,
  kBadOpcode,
  kUnknownQp,
  kBadRkey,
  kOutOfBounds,
  kUnalignedAtomic,
  kExecuted,
  kCount,
};

constexpr std::array<const char*, static_cast<int>(Outcome::kCount)>
    kOutcomeNames = {"not_roce",   "bad_icrc", "bad_opcode",
                     "unknown_qp", "bad_rkey", "out_of_bounds",
                     "unaligned_atomic", "executed"};

using Tally = std::array<std::uint64_t, static_cast<int>(Outcome::kCount)>;

Tally tally(const rdma::RnicCounters& c) {
  return {c.not_roce.load(),   c.bad_icrc.load(),
          c.bad_opcode.load(), c.unknown_qp.load(),
          c.bad_rkey.load(),   c.out_of_bounds.load(),
          c.unaligned_atomic.load(), c.executed.load()};
}

bool in_region(std::uint64_t vaddr, std::uint64_t len) {
  return vaddr >= kBase && len <= kMrBytes && vaddr - kBase <= kMrBytes - len;
}

// One RNIC with an 8 KB memory region open to writes and atomics, and an
// RC and a UC queue pair that accept every PSN.
struct Target {
  std::vector<std::byte> memory = std::vector<std::byte>(kMrBytes);
  rdma::SimulatedRnic rnic;
  std::uint32_t rkey = 0;

  Target(bool check_icrc, bool dta) {
    const auto pd = rnic.alloc_pd();
    rkey = rnic.register_mr(pd, memory, kBase,
                            rdma::Access::kRemoteWrite |
                                rdma::Access::kRemoteAtomic)
               .value()
               .rkey;
    (void)rnic.create_qp(kRcQpn, rdma::QpType::kRc, pd,
                         rdma::PsnPolicy::kIgnore);
    (void)rnic.create_qp(kUcQpn, rdma::QpType::kUc, pd,
                         rdma::PsnPolicy::kIgnore);
    rnic.set_validate_icrc(check_icrc);
    rnic.set_dta_multiwrite(dta);
  }
};

std::uint64_t word_at(const std::vector<std::byte>& mem, std::uint64_t vaddr) {
  std::uint64_t w;
  std::memcpy(&w, mem.data() + (vaddr - kBase), 8);
  return w;
}

// What the reference decode makes the RNIC do with a frame: the counter it
// moves, and for an execution the completion and memory it leaves.
struct Expected {
  Outcome outcome = Outcome::kNotRoce;
  rdma::Completion completion{};
  std::vector<std::byte> memory;  // when executed
};

Expected admit(const rdma::RoceRequest& req, std::uint32_t rkey,
               const std::vector<std::byte>& memory) {
  Expected e;
  const std::uint32_t qpn = req.bth.dest_qp;
  if (qpn != kRcQpn && qpn != kUcQpn) {
    e.outcome = Outcome::kUnknownQp;
    return e;
  }
  if ((qpn == kUcQpn) != rdma::is_unreliable(req.bth.opcode)) {
    e.outcome = Outcome::kBadOpcode;
    return e;
  }
  const bool atomic = rdma::is_atomic(req.bth.opcode);
  const std::uint64_t vaddr = atomic ? req.atomic_eth->vaddr : req.reth->vaddr;
  const std::uint64_t len = atomic ? 8 : req.payload.size();
  if ((atomic ? req.atomic_eth->rkey : req.reth->rkey) != rkey) {
    e.outcome = Outcome::kBadRkey;
    return e;
  }
  if (!in_region(vaddr, len)) {
    e.outcome = Outcome::kOutOfBounds;
    return e;
  }
  if (atomic && (vaddr & 0x7u) != 0) {
    e.outcome = Outcome::kUnalignedAtomic;
    return e;
  }
  e.outcome = Outcome::kExecuted;
  e.completion = {req.bth.opcode, qpn, vaddr, static_cast<std::uint32_t>(len),
                  0};
  e.memory = memory;
  std::byte* at = e.memory.data() + (vaddr - kBase);
  if (!atomic) {
    if (len != 0) std::memcpy(at, req.payload.data(), len);
    return e;
  }
  const std::uint64_t prior = word_at(memory, vaddr);
  e.completion.atomic_prior = prior;
  std::uint64_t next = prior;
  if (req.bth.opcode == rdma::Opcode::kRcFetchAdd) {
    next = prior + req.atomic_eth->swap_add;
  } else if (prior == req.atomic_eth->compare) {
    next = req.atomic_eth->swap_add;
  }
  std::memcpy(at, &next, 8);
  return e;
}

Expected admit_multiwrite(std::span<const std::byte> payload,
                          std::uint32_t rkey,
                          const std::vector<std::byte>& memory) {
  Expected e;
  const auto mw = rdma::parse_multiwrite(payload);
  if (!mw) {
    e.outcome = Outcome::kBadIcrc;
    return e;
  }
  if (mw->rkey != rkey) {
    e.outcome = Outcome::kBadRkey;
    return e;
  }
  for (const auto vaddr : mw->vaddrs) {
    if (!in_region(vaddr, mw->payload.size())) {
      e.outcome = Outcome::kOutOfBounds;
      return e;
    }
  }
  e.outcome = Outcome::kExecuted;
  e.completion = {rdma::Opcode::kRcRdmaWriteOnly, 0, mw->vaddrs.front(),
                  static_cast<std::uint32_t>(mw->payload.size() *
                                             mw->vaddrs.size()),
                  0};
  e.memory = memory;
  for (const auto vaddr : mw->vaddrs) {
    if (!mw->payload.empty()) {
      std::memcpy(e.memory.data() + (vaddr - kBase), mw->payload.data(),
                  mw->payload.size());
    }
  }
  return e;
}

Expected expect(const ReferenceDecode& want, bool dta, std::uint32_t rkey,
                const std::vector<std::byte>& memory) {
  Expected e;
  switch (want.verdict) {
    case V::kNotUdp:
      e.outcome = Outcome::kNotRoce;
      break;
    case V::kOtherPort:
      if (dta && want.udp_dst_port == rdma::kDtaUdpPort) {
        return admit_multiwrite(want.udp_payload, rkey, memory);
      }
      e.outcome = Outcome::kNotRoce;
      break;
    case V::kBadIcrc:
      e.outcome = Outcome::kBadIcrc;
      break;
    case V::kBadRequest:
      e.outcome = Outcome::kBadOpcode;
      break;
    case V::kOk:
      return admit(*want.req, rkey, memory);
  }
  return e;
}

std::optional<std::string> ingest_mismatch(Target& t,
                                           std::span<const std::byte> frame,
                                           const ReferenceDecode& want,
                                           bool check_icrc, bool dta) {
  const auto e = expect(want, dta, t.rkey, t.memory);
  const auto before = tally(t.rnic.counters());
  const auto memory_before = t.memory;
  const auto completion = t.rnic.process_frame(frame);
  const auto after = tally(t.rnic.counters());

  const std::string where =
      std::string("RNIC (iCRC ") + (check_icrc ? "on" : "off") + ", DTA " +
      (dta ? "on" : "off") + ") on a " + std::to_string(frame.size()) +
      "-byte " + verdict_name(want.verdict) + " frame: ";
  for (std::size_t i = 0; i < before.size(); ++i) {
    const std::uint64_t moved = after[i] - before[i];
    const std::uint64_t should = i == static_cast<std::size_t>(e.outcome);
    if (moved != should) {
      return where + kOutcomeNames[i] + " moved by " + std::to_string(moved) +
             ", reference expects " + kOutcomeNames[static_cast<int>(
                                          e.outcome)];
    }
  }
  if (completion.has_value() != (e.outcome == Outcome::kExecuted)) {
    return where + "completion " + (completion ? "present" : "missing");
  }
  if (!completion) {
    if (t.memory != memory_before) return where + "rejected frame wrote memory";
    return std::nullopt;
  }
  const auto& c = *completion;
  const auto& w = e.completion;
  if (c.opcode != w.opcode || c.vaddr != w.vaddr || c.length != w.length ||
      (want.verdict == V::kOk &&
       (c.qpn != w.qpn ||
        (rdma::is_atomic(c.opcode) && c.atomic_prior != w.atomic_prior)))) {
    return where + "completion differs from the request's";
  }
  if (t.memory != e.memory) return where + "memory differs from the request's";
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

struct Coverage {
  std::array<std::uint64_t, 5> by_verdict{};  // reference, iCRC checked
  std::array<std::uint64_t, static_cast<int>(Damage::kCount)> by_damage{};
  std::array<std::uint64_t, static_cast<int>(Outcome::kCount)> outcomes{};
  std::uint64_t ok_tcp = 0;
  std::uint64_t ok_long = 0;        // requests in frames past 1,536 bytes
  std::uint64_t ok_fragment = 0;    // requests with flags/fragment set
  std::uint64_t runts_4791 = 0;     // port 4791 with no room for BTH + iCRC
  std::uint64_t dta_executed = 0;
};

// Both properties share the case: one frame, damaged, fed to the
// classifier or to the RNICs. Target `i` checks the iCRC when bit 0 of `i`
// is set and runs DTA multiwrite when bit 1 is.
std::optional<Failure> roce_case(Rng& rng, Coverage& cov, bool ingest) {
  std::array<std::unique_ptr<Target>, 4> single;
  std::array<std::unique_ptr<Target>, 4> burst;
  for (int i = 0; ingest && i < 4; ++i) {
    single[i] = std::make_unique<Target>(i & 1, i & 2);
    burst[i] = std::make_unique<Target>(i & 1, i & 2);
  }
  // Every Target registers the same way, so they share one rkey; the
  // classifier alone has no use for it.
  const std::uint32_t rkey = ingest ? single[0]->rkey : 0;

  const auto base = gen_frame(rng, rkey);
  const auto damage =
      static_cast<Damage>(rng.below(static_cast<int>(Damage::kCount)));
  ++cov.by_damage[static_cast<int>(damage)];
  const auto frames = damaged(rng, base, damage);

  for (const auto& frame : frames) {
    const auto fail = [&frame](std::string why) {
      return Failure{std::move(why), frame};
    };
    std::array<ReferenceDecode, 2> want = {
        reference_decode_frame(frame, false),
        reference_decode_frame(frame, true)};
    const auto& checked = want[1];
    ++cov.by_verdict[static_cast<int>(checked.verdict)];
    if (checked.verdict == V::kOk) {
      cov.ok_tcp += frame[kIp + 9] == std::byte{net::kIpProtoTcp};
      cov.ok_long += frame.size() > 1536;
      cov.ok_fragment +=
          frame[kIp + 6] != std::byte{0} || frame[kIp + 7] != std::byte{0};
    }
    cov.runts_4791 += checked.verdict != V::kNotUdp &&
                      checked.udp_dst_port == net::kRoceV2UdpPort &&
                      checked.udp_payload.size() <
                          rdma::kBthLen + rdma::kIcrcLen;

    if (!ingest) {
      for (const bool check_icrc : {false, true}) {
        if (auto why = decode_mismatch(frame, check_icrc, want[check_icrc])) {
          return fail(*why);
        }
      }
      continue;
    }
    for (int i = 0; i < 4; ++i) {
      const bool check_icrc = i & 1;
      const bool dta = i & 2;
      const auto multi = single[i]->rnic.counters().multiwrite_frames.load();
      if (auto why = ingest_mismatch(*single[i], frame, want[check_icrc],
                                     check_icrc, dta)) {
        return fail(*why);
      }
      cov.dta_executed +=
          single[i]->rnic.counters().multiwrite_frames.load() - multi;
    }
  }
  if (!ingest) return std::nullopt;

  for (int i = 0; i < 4; ++i) {
    const auto got = tally(single[i]->rnic.counters());
    for (std::size_t k = 0; k < got.size(); ++k) cov.outcomes[k] += got[k];
  }

  // The same frames as one burst.
  std::vector<std::span<const std::byte>> spans(frames.begin(), frames.end());
  for (int i = 0; i < 4; ++i) {
    (void)burst[i]->rnic.process_frames(spans);
    if (tally(burst[i]->rnic.counters()) != tally(single[i]->rnic.counters()) ||
        burst[i]->memory != single[i]->memory) {
      return Failure{"process_frames of " + std::to_string(frames.size()) +
                         " frames ends unlike process_frame one at a time",
                     base};
    }
  }
  return std::nullopt;
}

TEST(PropRoce, ClassifierAgreesWithLayeredReference) {
  Coverage cov;
  const auto report = check(
      "roce_decode_vs_reference",
      [&cov](Rng& rng) { return roce_case(rng, cov, false); }, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
  for (const auto n : cov.by_verdict) EXPECT_GT(n, 300u);
  for (const auto n : cov.by_damage) EXPECT_GT(n, 50u);
  EXPECT_GT(cov.ok_tcp, 50u);
  EXPECT_GT(cov.ok_long, 50u);
  EXPECT_GT(cov.ok_fragment, 50u);
  EXPECT_GT(cov.runts_4791, 300u);
}

TEST(PropRoce, RnicExecutesExactlyTheReferenceRequests) {
  Coverage cov;
  const auto report = check(
      "roce_ingest_vs_reference",
      [&cov](Rng& rng) { return roce_case(rng, cov, true); }, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
  for (const auto n : cov.outcomes) EXPECT_GT(n, 50u);
  EXPECT_GT(cov.dta_executed, 50u);
}

std::optional<Failure> prefix_property(Rng& rng) {
  std::vector<std::byte> frame;
  do {
    frame = gen_frame(rng, 0);
  } while (frame.size() <
           net::kUdpFrameHeaderLen + rdma::kBthLen + rdma::kIcrcLen);
  // A frame as the crafter builds it: to port 4791, iCRC in place.
  put16(frame, kL4 + 2, net::kRoceV2UdpPort);
  if (!reference_finalize_frame_icrc(frame)) {
    return Failure{"reference refused a well-formed frame", frame};
  }
  const std::size_t icrc_off = frame.size() - rdma::kIcrcLen;
  Crc32 crc = rdma::icrc_prefix_state(frame);
  crc.update(std::span(frame).subspan(rdma::kIcrcVariantOffset,
                                      icrc_off - rdma::kIcrcVariantOffset));
  std::uint32_t want;
  std::memcpy(&want, frame.data() + icrc_off, rdma::kIcrcLen);
  if (crc.value() != want) {
    return Failure{"prefix state resumed to the slot differs from the "
                   "reference iCRC of a " +
                       std::to_string(frame.size()) + "-byte frame",
                   frame};
  }
  return std::nullopt;
}

TEST(PropRoce, PrefixStateResumesToReferenceIcrc) {
  const auto report = check("icrc_prefix_vs_reference", prefix_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

}  // namespace
}  // namespace dart::check
