#include "switchsim/topology.hpp"

#include <cassert>
#include <cstdio>

namespace dart::switchsim {

FatTree::FatTree(std::uint32_t k) : k_(k), half_(k / 2) {
  assert(k >= 2 && k % 2 == 0);
}

std::uint32_t FatTree::edge_id(std::uint32_t pod,
                               std::uint32_t index) const noexcept {
  return pod * half_ + index;
}

std::uint32_t FatTree::agg_id(std::uint32_t pod,
                              std::uint32_t index) const noexcept {
  return n_edge() + pod * half_ + index;
}

std::uint32_t FatTree::core_id(std::uint32_t index) const noexcept {
  return n_edge() + n_aggregation() + index;
}

SwitchRef FatTree::describe(std::uint32_t switch_id) const {
  SwitchRef ref;
  ref.id = switch_id;
  if (switch_id < n_edge()) {
    ref.tier = SwitchTier::kEdge;
    ref.pod = switch_id / half_;
    ref.index = switch_id % half_;
  } else if (switch_id < n_edge() + n_aggregation()) {
    const std::uint32_t local = switch_id - n_edge();
    ref.tier = SwitchTier::kAggregation;
    ref.pod = local / half_;
    ref.index = local % half_;
  } else {
    ref.tier = SwitchTier::kCore;
    ref.pod = 0;
    ref.index = switch_id - n_edge() - n_aggregation();
  }
  return ref;
}

std::string FatTree::switch_name(std::uint32_t switch_id) const {
  const SwitchRef ref = describe(switch_id);
  char buf[32];
  switch (ref.tier) {
    case SwitchTier::kEdge:
      std::snprintf(buf, sizeof(buf), "edge-p%u-%u", ref.pod, ref.index);
      break;
    case SwitchTier::kAggregation:
      std::snprintf(buf, sizeof(buf), "agg-p%u-%u", ref.pod, ref.index);
      break;
    case SwitchTier::kCore:
      std::snprintf(buf, sizeof(buf), "core-%u", ref.index);
      break;
  }
  return buf;
}

std::uint32_t FatTree::host_pod(std::uint32_t host) const noexcept {
  // hosts per pod = (k/2 edges) * (k/2 hosts per edge)
  return host / (half_ * half_);
}

std::uint32_t FatTree::host_edge(std::uint32_t host) const noexcept {
  const std::uint32_t pod = host_pod(host);
  const std::uint32_t in_pod = host - pod * half_ * half_;
  return edge_id(pod, in_pod / half_);
}

net::Ipv4Addr FatTree::host_ip(std::uint32_t host) const noexcept {
  const std::uint32_t pod = host_pod(host);
  const std::uint32_t in_pod = host - pod * half_ * half_;
  const std::uint32_t edge = in_pod / half_;
  const std::uint32_t idx = in_pod % half_;
  return net::Ipv4Addr::from_octets(10, static_cast<std::uint8_t>(pod),
                                    static_cast<std::uint8_t>(edge),
                                    static_cast<std::uint8_t>(2 + idx));
}

std::vector<std::uint32_t> FatTree::path(std::uint32_t src_host,
                                         std::uint32_t dst_host,
                                         std::uint64_t flow_hash) const {
  assert(src_host < n_hosts() && dst_host < n_hosts());
  const std::uint32_t src_edge = host_edge(src_host);
  const std::uint32_t dst_edge = host_edge(dst_host);

  if (src_edge == dst_edge) {
    return {src_edge};  // intra-rack: one hop through the ToR
  }

  const std::uint32_t src_pod = host_pod(src_host);
  const std::uint32_t dst_pod = host_pod(dst_host);

  // Hash-based ECMP: the aggregation uplink choice within the pod and the
  // core choice above it are both derived from the (stable) flow hash.
  const auto agg_choice = static_cast<std::uint32_t>(flow_hash % half_);

  if (src_pod == dst_pod) {
    return {src_edge, agg_id(src_pod, agg_choice), dst_edge};
  }

  // Inter-pod (the paper's 5-hop case): aggregation switch `a` in a pod
  // connects to cores [a*half, (a+1)*half); pick one by hash.
  const auto core_choice = static_cast<std::uint32_t>((flow_hash / half_) % half_);
  const std::uint32_t core = core_id(agg_choice * half_ + core_choice);
  // The downstream aggregation switch is determined by the chosen core: core
  // c connects to aggregation switch index c/half in every pod.
  const std::uint32_t dst_agg_index = agg_choice;  // same row of the core grid
  return {src_edge, agg_id(src_pod, agg_choice), core,
          agg_id(dst_pod, dst_agg_index), dst_edge};
}

std::size_t FatTree::ecmp_path_count(std::uint32_t src_host,
                                     std::uint32_t dst_host) const noexcept {
  const std::uint32_t src_edge = host_edge(src_host);
  const std::uint32_t dst_edge = host_edge(dst_host);
  if (src_edge == dst_edge) return 1;
  if (host_pod(src_host) == host_pod(dst_host)) return half_;
  return static_cast<std::size_t>(half_) * half_;  // (k/2)^2 core paths
}

}  // namespace dart::switchsim
