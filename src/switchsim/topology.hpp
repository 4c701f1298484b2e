// k-ary fat-tree topology (Al-Fahad-style 3-tier Clos) — the fabric of the
// paper's running example: "INT path tracing carried on a 5-hop fat-tree
// topology" (§1, §5.2). An inter-pod flow traverses exactly 5 switches
// (edge → aggregation → core → aggregation → edge), which is where Fig. 4's
// 160-bit value (5 hops × 32-bit switch id) comes from.
//
// The topology computes deterministic ECMP paths from a flow hash, exposes
// host addressing, and reports its own dimensions. WireFabric's switches
// (src/telemetry) forward hop by hop with the same ECMP choices, so tests
// and benches use path() as the ground truth of where a flow went.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/headers.hpp"

namespace dart::switchsim {

enum class SwitchTier : std::uint8_t { kEdge, kAggregation, kCore };

struct SwitchRef {
  std::uint32_t id = 0;  // globally unique switch id
  SwitchTier tier = SwitchTier::kEdge;
  std::uint32_t pod = 0;       // meaningless for core switches
  std::uint32_t index = 0;     // index within tier (and pod, if applicable)
};

class FatTree {
 public:
  // `k` must be even and ≥ 2. Dimensions of a k-ary fat tree:
  //   pods = k; per pod: k/2 edge + k/2 aggregation switches;
  //   core = (k/2)^2; hosts = k^3/4 (k/2 per edge switch).
  explicit FatTree(std::uint32_t k);

  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t n_pods() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t n_core() const noexcept { return half_ * half_; }
  [[nodiscard]] std::uint32_t n_edge() const noexcept { return k_ * half_; }
  [[nodiscard]] std::uint32_t n_aggregation() const noexcept { return k_ * half_; }
  [[nodiscard]] std::uint32_t n_switches() const noexcept {
    return n_core() + n_edge() + n_aggregation();
  }
  [[nodiscard]] std::uint32_t n_hosts() const noexcept {
    return n_edge() * half_;
  }

  // --- switch id scheme ----------------------------------------------------
  // ids: [0, n_edge) edge, [n_edge, n_edge+n_agg) aggregation, then core.
  [[nodiscard]] std::uint32_t edge_id(std::uint32_t pod,
                                      std::uint32_t index) const noexcept;
  [[nodiscard]] std::uint32_t agg_id(std::uint32_t pod,
                                     std::uint32_t index) const noexcept;
  [[nodiscard]] std::uint32_t core_id(std::uint32_t index) const noexcept;
  [[nodiscard]] SwitchRef describe(std::uint32_t switch_id) const;
  [[nodiscard]] std::string switch_name(std::uint32_t switch_id) const;

  // --- host addressing -----------------------------------------------------
  [[nodiscard]] std::uint32_t host_pod(std::uint32_t host) const noexcept;
  [[nodiscard]] std::uint32_t host_edge(std::uint32_t host) const noexcept;
  // 10.pod.edge.(2+index) — the classic fat-tree addressing scheme.
  [[nodiscard]] net::Ipv4Addr host_ip(std::uint32_t host) const noexcept;

  // Where a host sits: its id, its pod and its edge switch.
  struct HostLocation {
    std::uint32_t host = 0;
    std::uint32_t pod = 0;
    std::uint32_t edge = 0;  // switch id
  };
  // Inverse of host_ip, with the pod and edge switch read off the address
  // bytes rather than divided back out of the host id; nullopt when no host
  // of this tree has the address. Inline: every switch hop locates the
  // destination.
  [[nodiscard]] std::optional<HostLocation> locate(
      net::Ipv4Addr ip) const noexcept {
    const std::uint32_t pod = (ip.value >> 16) & 0xFF;
    const std::uint32_t edge = (ip.value >> 8) & 0xFF;
    const std::uint32_t idx = (ip.value & 0xFF) - 2;  // .0, .1 wrap past half_
    if ((ip.value >> 24) != 10 || pod >= k_ || edge >= half_ || idx >= half_) {
      return std::nullopt;
    }
    const std::uint32_t edge_switch = pod * half_ + edge;  // edge_id()
    return HostLocation{edge_switch * half_ + idx, pod, edge_switch};
  }

  // --- routing -------------------------------------------------------------

  // The switch-id sequence an (src→dst) flow traverses, with ECMP choices
  // made deterministically from `flow_hash` (hash-based ECMP, so one flow
  // always takes one path). Lengths: 1 (same edge), 3 (same pod),
  // 5 (inter-pod).
  [[nodiscard]] std::vector<std::uint32_t> path(std::uint32_t src_host,
                                                std::uint32_t dst_host,
                                                std::uint64_t flow_hash) const;

  // All minimal paths between two hosts (for path-count invariants in tests).
  [[nodiscard]] std::size_t ecmp_path_count(std::uint32_t src_host,
                                            std::uint32_t dst_host) const noexcept;

 private:
  std::uint32_t k_;
  std::uint32_t half_;
};

}  // namespace dart::switchsim
