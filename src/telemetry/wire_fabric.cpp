#include "telemetry/wire_fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "obs/adapters.hpp"
#include "telemetry/backends.hpp"

namespace dart::telemetry {

namespace {

// The packet's original 5-tuple: for INT packets the destination port the
// shim preserved, so the ECMP hash — and therefore the path — and the
// postcard keys are stable across the encapsulation.
FiveTuple original_tuple(const net::ParsedUdpFrame& frame) {
  FiveTuple tuple;
  tuple.src_ip = frame.ip.src;
  tuple.dst_ip = frame.ip.dst;
  tuple.src_port = frame.udp.src_port;
  tuple.dst_port = frame.udp.dst_port;
  tuple.protocol = frame.ip.protocol;
  if (frame.udp.dst_port == kIntUdpPort) {
    if (const auto port = int_original_dst_port(frame.payload)) {
      tuple.dst_port = *port;
    }
  }
  return tuple;
}

// The ECMP flow hash a switch derives from the packet's original 5-tuple
// where its tier picks among equal paths; it matches FatTree::path for the
// original flow.
std::uint64_t flow_hash_of(const net::ParsedUdpFrame& frame) {
  const auto key = original_tuple(frame).key_bytes();
  return xxhash64(key, 0xECB9);
}

// The destination IPv4 address of a frame net::parse_udp_frame accepts.
[[nodiscard]] net::Ipv4Addr ipv4_dst_of(std::span<const std::byte> frame) {
  return net::Ipv4Addr{load_be32(frame.data() + net::kEthernetHeaderLen + 16)};
}

// Switches on the longest path of a fat tree (edge, agg, core, agg, edge).
constexpr std::size_t kLongestPathSwitches = 5;

// The bytes the INT source edge inserts into a host's frame, at most: shim,
// MD header and one hop per switch on the longest path, capped by
// int_max_hops. A host frame built with this much spare capacity is never
// reallocated on its way through the fabric.
std::size_t int_room(const WireFabricConfig& config) {
  const std::size_t hops =
      std::min<std::size_t>(kLongestPathSwitches, config.int_max_hops);
  return kIntShimLen + kIntMdLen +
         hops * 4 * std::size_t{int_hop_words(config.int_instructions)};
}

}  // namespace

// ---------------------------------------------------------------------------
// HostNode
// ---------------------------------------------------------------------------

class HostNode final : public net::Node {
 public:
  HostNode(std::uint32_t host_id, net::Ipv4Addr ip,
           std::shared_ptr<const FabricDirectory> directory,
           const switchsim::FatTree* topo, std::size_t int_room)
      : host_id_(host_id), ip_(ip), directory_(std::move(directory)),
        topo_(topo), int_room_(int_room) {}

  void receive(net::Packet packet, std::uint64_t) override {
    const auto parsed = net::parse_udp_frame(packet.bytes());
    if (parsed && parsed->ip.dst == ip_) ++received_;
  }

  void send_udp(const FiveTuple& flow, std::span<const std::byte> payload) {
    net::UdpFrameSpec spec;
    spec.src_mac = mac();
    spec.dst_mac = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};  // next-hop rewrites
    spec.src_ip = flow.src_ip;
    spec.dst_ip = flow.dst_ip;
    spec.src_port = flow.src_port;
    spec.dst_port = flow.dst_port;
    spec.protocol = flow.protocol;
    std::vector<std::byte> frame;
    frame.reserve(net::kUdpFrameHeaderLen + payload.size() + int_room_);
    frame.resize(net::kUdpFrameHeaderLen + payload.size());
    net::build_udp_frame_into(spec, payload, frame);
    const auto edge = topo_->host_edge(host_id_);
    sim_->send(self_, directory_->switch_nodes[edge],
               net::Packet(std::move(frame)));
    ++sent_;
  }

  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }

 private:
  [[nodiscard]] net::MacAddr mac() const noexcept {
    return {0x02, 0x0A, 0, 0, static_cast<std::uint8_t>(host_id_ >> 8),
            static_cast<std::uint8_t>(host_id_ & 0xFF)};
  }

  std::uint32_t host_id_;
  net::Ipv4Addr ip_;
  std::shared_ptr<const FabricDirectory> directory_;
  const switchsim::FatTree* topo_;
  std::size_t int_room_;  // spare frame capacity for the INT source's bytes
  std::uint64_t received_ = 0;
  std::uint64_t sent_ = 0;
};

// ---------------------------------------------------------------------------
// ForwardingSwitch
// ---------------------------------------------------------------------------

class ForwardingSwitch final : public net::Node {
 public:
  struct Stats {
    std::uint64_t forwarded = 0;
    std::uint64_t int_sources = 0;
    std::uint64_t int_sinks = 0;
    std::uint64_t int_overhead_bytes = 0;
    std::uint64_t reports_emitted = 0;
    std::uint64_t routing_drops = 0;
    std::uint32_t max_reported_queue_depth = 0;
    std::uint64_t postcard_observations = 0;
    std::uint64_t postcard_reports = 0;
  };

  ForwardingSwitch(const WireFabricConfig& config,
                   const switchsim::FatTree* topo, std::uint32_t switch_id,
                   std::shared_ptr<const FabricDirectory> directory,
                   const std::vector<core::RemoteStoreInfo>& collectors)
      : config_(config), topo_(topo), self_ref_(topo->describe(switch_id)),
        directory_(std::move(directory)), rng_(config.seed * 7919 + switch_id) {
    switchsim::DartSwitchPipeline::Config sc;
    sc.dart = config.dart;
    sc.mac = {0x02, 0x5A, 0, 0, static_cast<std::uint8_t>(switch_id >> 8),
              static_cast<std::uint8_t>(switch_id & 0xFF)};
    sc.ip = net::Ipv4Addr::from_octets(
        10, 254, static_cast<std::uint8_t>(switch_id >> 8),
        static_cast<std::uint8_t>(switch_id & 0xFF));
    sc.max_collectors = std::max<std::uint32_t>(config.n_collectors, 1);
    sc.rng_seed = config.seed * 104729 + switch_id;
    sc.write_mode = config.switch_write_mode;
    pipeline_ = std::make_unique<switchsim::DartSwitchPipeline>(sc);
    for (const auto& info : collectors) pipeline_->load_collector(info);
    source_md_.remaining_hops = config.int_max_hops;
    source_md_.instructions = config.int_instructions;
    source_md_.hop_words = int_hop_words(config.int_instructions);
    report_value_.resize(config.dart.value_bytes);
    if (config.postcards) {
      auto det_cfg = config.postcard_detector;
      det_cfg.seed ^= switch_id;  // independent tag hashing per switch
      postcard_detector_ = std::make_unique<ChangeDetector>(det_cfg);
    }
  }

  void receive(net::Packet packet, std::uint64_t now_ns) override;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const switchsim::SwitchCounters& pipeline_counters()
      const noexcept {
    return pipeline_->counters();
  }
  // Mutable pipeline access for the failover control plane (retarget /
  // restore / PSN reset — see WireFabric::retarget_collector).
  [[nodiscard]] switchsim::DartSwitchPipeline& pipeline() noexcept {
    return *pipeline_;
  }

 private:
  // Hop metadata sampled against the packet's actual egress link: the
  // queue depth is the link's real instantaneous egress queue (non-zero
  // only when links are bandwidth-shaped), as INT-MD specifies.
  [[nodiscard]] IntHopMetadata my_hop_metadata(std::uint64_t now_ns,
                                               net::NodeId egress) noexcept {
    IntHopMetadata hop;
    hop.switch_id = self_ref_.id + 1;  // wire ids are topo id + 1
    hop.queue_depth = sim_->link_queue_depth(self_, egress);
    hop.hop_latency_ns =
        static_cast<std::uint32_t>(config_.link_latency_ns +
                                   rng_.below(500)) +
        static_cast<std::uint32_t>(now_ns % 2);
    return hop;
  }

  // Next-hop switch toward the host at `dst` (hash-based ECMP, mirrors
  // FatTree::path); only valid when this switch is not the destination edge.
  [[nodiscard]] std::uint32_t next_hop_switch(
      const net::ParsedUdpFrame& parsed,
      const switchsim::FatTree::HostLocation& dst) const;

  void deliver_reports(std::span<const std::byte> key,
                       std::span<const std::byte> value);

  // INT sink: strips the stack off `packet` in place and reports the path.
  void sink(net::Packet& packet, const net::ParsedUdpFrame& parsed,
            std::uint64_t now_ns, net::NodeId egress);

  // Postcard mode: report this switch's hop record for the packet's flow,
  // gated by the change detector on the observed queue depth.
  void maybe_emit_postcard(const net::ParsedUdpFrame& parsed,
                           const IntHopMetadata& hop);

  WireFabricConfig config_;
  const switchsim::FatTree* topo_;
  switchsim::SwitchRef self_ref_;
  std::shared_ptr<const FabricDirectory> directory_;
  Xoshiro256 rng_;
  std::unique_ptr<switchsim::DartSwitchPipeline> pipeline_;
  std::unique_ptr<ChangeDetector> postcard_detector_;
  IntMdHeader source_md_;                   // what this switch encapsulates with
  std::vector<std::byte> report_value_;     // the sink's DART value
  std::vector<std::vector<std::byte>> report_frames_;  // reused per event
  Stats stats_;
};

void ForwardingSwitch::deliver_reports(std::span<const std::byte> key,
                                       std::span<const std::byte> value) {
  report_frames_.clear();
  pipeline_->on_telemetry(key, value, report_frames_);
  for (auto& frame : report_frames_) {
    ++stats_.reports_emitted;
    // The template-built frame's destination is at its fixed offset.
    assert(net::parse_udp_frame(frame).has_value() &&
           net::parse_udp_frame(frame)->ip.dst == ipv4_dst_of(frame));
    // Monitoring underlay: a direct link to each collector 10.0.100.c.
    const net::Ipv4Addr dst = ipv4_dst_of(frame);
    const std::uint32_t c = dst.value & 0xFF;
    if ((dst.value >> 8) == 0x0A0064 &&
        c < directory_->collector_nodes.size()) {
      sim_->send(self_, directory_->collector_nodes[c],
                 net::Packet(std::move(frame)));
    }
  }
}

void ForwardingSwitch::maybe_emit_postcard(const net::ParsedUdpFrame& parsed,
                                           const IntHopMetadata& hop) {
  // Key the postcard by the flow's ORIGINAL 5-tuple, so queries use the
  // same key at every hop.
  const FiveTuple tuple = original_tuple(parsed);

  ++stats_.postcard_observations;
  const auto key = postcard_key(hop.switch_id, tuple);
  if (!postcard_detector_->observe(key, hop.queue_depth, sim_->now_ns())) {
    return;  // suppressed: nothing changed for this (switch, flow)
  }
  ++stats_.postcard_reports;
  const auto record = make_postcard_record(hop.switch_id, tuple, hop,
                                           config_.dart.value_bytes);
  deliver_reports(record.key, record.value);
}

void ForwardingSwitch::receive(net::Packet packet, std::uint64_t now_ns) {
  auto parsed = net::parse_udp_frame(packet.bytes());
  const auto dst = parsed ? topo_->locate(parsed->ip.dst) : std::nullopt;
  if (!dst) {
    // Unparsable, or addressed to no host of this fabric.
    ++stats_.routing_drops;
    return;
  }
  ++stats_.forwarded;

  // The INT source is the edge of the packet's source host, whatever port
  // the host chose; past it, every frame of the fabric carries INT.
  const bool is_edge = self_ref_.tier == switchsim::SwitchTier::kEdge;
  const auto src = is_edge ? topo_->locate(parsed->ip.src) : std::nullopt;
  const bool i_am_src_edge = src && src->edge == self_ref_.id;
  const bool is_int = parsed->udp.dst_port == kIntUdpPort;
  const bool i_am_dst_edge = is_edge && dst->edge == self_ref_.id;

  // The packet's egress (needed up front: hop metadata samples the real
  // queue depth of the link it is about to cross).
  const net::NodeId egress =
      i_am_dst_edge ? directory_->host_nodes[dst->host]
                    : directory_->switch_nodes[next_hop_switch(*parsed, *dst)];

  // --- INT: the source encapsulates, transits push, all in the frame ------
  // Only the port and payload views are refreshed: what follows (postcards,
  // the sink, forwarding) reads addresses, ports and payload, never lengths
  // or TTL.
  if (i_am_src_edge) {
    parsed->payload = int_source_push_frame(packet, source_md_,
                                            my_hop_metadata(now_ns, egress));
    parsed->udp.dst_port = kIntUdpPort;
    ++stats_.int_sources;
  } else if (is_int && !i_am_dst_edge) {
    parsed->payload =
        int_transit_push_frame(packet, my_hop_metadata(now_ns, egress));
  }

  // --- Postcards (Table 1 row 2): every switch may report its own hop ----
  if (postcard_detector_) {
    maybe_emit_postcard(*parsed, my_hop_metadata(now_ns, egress));
  }

  if (i_am_dst_edge && parsed->udp.dst_port == kIntUdpPort) {
    sink(packet, *parsed, now_ns, egress);
  }
  // Forwarding (hash-based ECMP, mirrors FatTree::path), or delivery of the
  // inner frame — or of a frame without INT — to the local host.
  sim_->send(self_, egress, std::move(packet));
}

void ForwardingSwitch::sink(net::Packet& packet,
                            const net::ParsedUdpFrame& parsed,
                            std::uint64_t now_ns, net::NodeId egress) {
  const auto owes_hop = int_sink_owes_hop(parsed.payload, self_ref_.id + 1);
  if (!owes_hop) return;  // malformed INT: delivered as it came
  std::optional<IntHopMetadata> own_hop;
  if (*owes_hop) own_hop = my_hop_metadata(now_ns, egress);
  // The report key, read before the frame loses its INT headers.
  const auto key = original_tuple(parsed).key_bytes();

  const IntSinkResult sunk = int_sink_pop_frame(
      packet, own_hop, config_.int_max_hops, report_value_);
  ++stats_.int_sinks;
  stats_.int_overhead_bytes += sunk.overhead_bytes;
  stats_.max_reported_queue_depth =
      std::max(stats_.max_reported_queue_depth, sunk.max_queue_depth);
  // DART report: key = original 5-tuple, value = path switch ids.
  if (sunk.value_written) deliver_reports(key, report_value_);
}

std::uint32_t ForwardingSwitch::next_hop_switch(
    const net::ParsedUdpFrame& parsed,
    const switchsim::FatTree::HostLocation& dst) const {
  // Only the uplink choices hash the flow: an edge picks its aggregation
  // switch, an aggregation switch its core. The way down is fixed.
  const std::uint32_t half = topo_->k() / 2;
  switch (self_ref_.tier) {
    case switchsim::SwitchTier::kEdge: {
      const auto agg_choice =
          static_cast<std::uint32_t>(flow_hash_of(parsed) % half);
      return topo_->agg_id(self_ref_.pod, agg_choice);
    }
    case switchsim::SwitchTier::kAggregation: {
      if (dst.pod == self_ref_.pod) return dst.edge;
      const auto core_choice =
          static_cast<std::uint32_t>((flow_hash_of(parsed) / half) % half);
      return topo_->core_id(self_ref_.index * half + core_choice);
    }
    case switchsim::SwitchTier::kCore:
      return topo_->agg_id(dst.pod, self_ref_.index / half);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// WireFabric
// ---------------------------------------------------------------------------

WireFabric::WireFabric(const WireFabricConfig& config)
    : config_(config), topo_(config.fat_tree_k), sim_(config.seed) {
  cluster_ = std::make_unique<core::CollectorCluster>(
      config.dart, config.n_collectors);
  directory_ = std::make_shared<FabricDirectory>();
  if (config.dart.selection == core::CollectorSelection::kRing) {
    // Fabric-wide live selector for the query plane, capacity = fleet size —
    // the SAME capacity every switch pipeline uses (max_collectors below),
    // which is what makes their independent ring replicas agree. Starts at
    // full membership: bring-up loads every collector.
    selector_ = std::make_unique<core::CollectorSelector>(
        config.dart, std::max<std::uint32_t>(config.n_collectors, 1));
  }

  // Collector RNICs join the simulator directly.
  for (std::uint32_t c = 0; c < cluster_->size(); ++c) {
    directory_->collector_nodes.push_back(
        sim_.add_node(cluster_->collector(c).rnic()));
  }
  // Switches.
  for (std::uint32_t s = 0; s < topo_.n_switches(); ++s) {
    switches_.push_back(std::make_unique<ForwardingSwitch>(
        config, &topo_, s, directory_, cluster_->directory()));
    directory_->switch_nodes.push_back(sim_.add_node(*switches_.back()));
  }
  // Hosts.
  for (std::uint32_t h = 0; h < topo_.n_hosts(); ++h) {
    hosts_.push_back(std::make_unique<HostNode>(
        h, topo_.host_ip(h), directory_, &topo_, int_room(config)));
    directory_->host_nodes.push_back(sim_.add_node(*hosts_.back()));
  }

  const std::uint64_t lat = config.link_latency_ns;
  // Data links: host↔edge, edge↔agg (full bipartite per pod), agg↔core —
  // each direction optionally bandwidth-shaped.
  auto connect_shaped = [&](net::NodeId a, net::NodeId b) {
    sim_.add_link(a, b, lat, nullptr, config.data_link_shape);
    sim_.add_link(b, a, lat, nullptr, config.data_link_shape);
  };
  for (std::uint32_t h = 0; h < topo_.n_hosts(); ++h) {
    connect_shaped(directory_->host_nodes[h],
                   directory_->switch_nodes[topo_.host_edge(h)]);
  }
  const std::uint32_t half = topo_.k() / 2;
  for (std::uint32_t pod = 0; pod < topo_.n_pods(); ++pod) {
    for (std::uint32_t e = 0; e < half; ++e) {
      for (std::uint32_t a = 0; a < half; ++a) {
        connect_shaped(directory_->switch_nodes[topo_.edge_id(pod, e)],
                       directory_->switch_nodes[topo_.agg_id(pod, a)]);
      }
    }
    for (std::uint32_t a = 0; a < half; ++a) {
      for (std::uint32_t c = 0; c < half; ++c) {
        connect_shaped(directory_->switch_nodes[topo_.agg_id(pod, a)],
                       directory_->switch_nodes[topo_.core_id(a * half + c)]);
      }
    }
  }
  // Monitoring underlay: every switch → every collector, with report loss.
  // Link ids are kept so register_metrics can export the underlay's
  // delivered/dropped totals as their own link set (the loss term of the
  // reports-emitted == frames-received + dropped conservation invariant).
  for (std::uint32_t s = 0; s < topo_.n_switches(); ++s) {
    for (std::uint32_t c = 0; c < cluster_->size(); ++c) {
      monitoring_links_.push_back(sim_.add_link(
          directory_->switch_nodes[s], directory_->collector_nodes[c], 5 * lat,
          config.report_loss_rate > 0.0
              ? std::unique_ptr<net::LossModel>(
                    std::make_unique<net::BernoulliLoss>(
                        config.report_loss_rate))
              : std::unique_ptr<net::LossModel>(
                    std::make_unique<net::NoLoss>())));
    }
  }
}

void WireFabric::register_metrics(obs::MetricRegistry& registry,
                                  const std::string& prefix) {
  // Per-switch pipeline counters (the existing SwitchCounters struct) plus
  // fabric-wide sums, which are what the conservation tests compare against.
  for (std::uint32_t s = 0; s < switches_.size(); ++s) {
    obs::register_switch_counters(registry,
                                  prefix + "_switch" + std::to_string(s),
                                  switches_[s]->pipeline_counters());
  }
  registry.counter_fn(prefix + "_switches_reports_emitted_total",
                      [this] {
                        std::uint64_t n = 0;
                        for (const auto& sw : switches_) {
                          n += sw->stats().reports_emitted;
                        }
                        return n;
                      },
                      "report frames sent toward collectors, all switches");
  registry.counter_fn(prefix + "_switches_telemetry_events_total",
                      [this] {
                        std::uint64_t n = 0;
                        for (const auto& sw : switches_) {
                          n += sw->pipeline_counters().telemetry_events;
                        }
                        return n;
                      },
                      "on_telemetry() invocations, all switches");
  registry.counter_fn(prefix + "_switches_routing_drops_total",
                      [this] {
                        std::uint64_t n = 0;
                        for (const auto& sw : switches_) {
                          n += sw->stats().routing_drops;
                        }
                        return n;
                      },
                      "frames switches dropped: unparsable, or for no host");
  registry.counter_fn(prefix + "_hosts_packets_sent_total",
                      [this] {
                        std::uint64_t n = 0;
                        for (const auto& h : hosts_) n += h->sent();
                        return n;
                      },
                      "UDP packets injected by hosts");
  registry.counter_fn(prefix + "_hosts_packets_received_total",
                      [this] {
                        std::uint64_t n = 0;
                        for (const auto& h : hosts_) n += h->received();
                        return n;
                      },
                      "inner frames delivered to hosts");

  for (std::uint32_t c = 0; c < cluster_->size(); ++c) {
    const std::string cp = prefix + "_collector" + std::to_string(c);
    obs::register_rnic_counters(registry, cp,
                                cluster_->collector(c).rnic().counters());
    obs::register_qp_counters(registry, cp,
                              cluster_->collector(c).rnic().qps());
  }

  obs::register_simulator(registry, prefix, sim_);
  obs::register_link_set(registry, prefix + "_monitoring", sim_,
                         monitoring_links_);

  // Query plane, when attach_operator has already been called.
  for (std::uint32_t c = 0; c < query_services_.size(); ++c) {
    query_services_[c]->bind_metrics(registry,
                                     prefix + "_collector" + std::to_string(c));
  }
  if (operator_) operator_->bind_metrics(registry, prefix);
  if (gateway_) gateway_->bind_metrics(registry, prefix);
  // The gateway-fronted operator gets its own namespace so its counters
  // never collide with the plain operator's.
  if (gateway_operator_) gateway_operator_->bind_metrics(registry, prefix + "_gw");
}

WireFabric::~WireFabric() = default;

std::uint32_t WireFabric::n_collectors() const noexcept {
  return cluster_->size();
}

std::uint32_t WireFabric::n_switches() const noexcept {
  return static_cast<std::uint32_t>(switches_.size());
}

net::LinkId WireFabric::monitoring_link(std::uint32_t s,
                                        std::uint32_t c) const {
  // Creation order in the constructor: for each switch, one link per
  // collector.
  return monitoring_links_[s * cluster_->size() + c];
}

core::QueryServiceNode* WireFabric::query_service(std::uint32_t c) noexcept {
  return c < query_services_.size() ? query_services_[c].get() : nullptr;
}

core::OperatorClient* WireFabric::operator_client() noexcept {
  return operator_.get();
}

void WireFabric::retarget_collector(std::uint32_t dead, std::uint32_t backup) {
  // The backup terminates the adopted stream on a dedicated QP at the dead
  // stream's well-known QPN — fresh PSN window, no interleaving with the
  // backup's own report stream.
  (void)cluster_->collector(backup).adopt_takeover_qp(dead);
  core::RemoteStoreInfo info = cluster_->collector(backup).remote_info();
  info.qpn = core::Collector::qpn_for(dead);
  for (auto& sw : switches_) sw->pipeline().retarget_collector(dead, info);
}

void WireFabric::restore_collector(std::uint32_t c) {
  cluster_->collector(c).reconnect_report_qp();
  const core::RemoteStoreInfo info = cluster_->collector(c).remote_info();
  for (auto& sw : switches_) sw->pipeline().restore_collector(info);
}

void WireFabric::reconnect_collector_qp(std::uint32_t c) {
  cluster_->collector(c).reconnect_report_qp();
  for (auto& sw : switches_) sw->pipeline().reset_psn(c);
}

switchsim::DartSwitchPipeline& WireFabric::switch_pipeline(std::uint32_t s) {
  return switches_[s]->pipeline();
}

void WireFabric::ring_remove_member(std::uint32_t c) {
  if (!selector_) return;
  selector_->remove_member(c);
  for (auto& sw : switches_) sw->pipeline().remove_member(c);
  // Cached answers for keys routed at `c` are now answered by survivors;
  // the stale copies must not be served under the new route.
  if (gateway_) (void)gateway_->cache().invalidate_collector(c);
}

void WireFabric::ring_add_member(std::uint32_t c) {
  if (!selector_) return;
  selector_->add_member(c);
  for (auto& sw : switches_) sw->pipeline().add_member(c);
  // Entries cached under `c` predate its death — drop them rather than let
  // the failback serve pre-death data as fresh.
  if (gateway_) (void)gateway_->cache().invalidate_collector(c);
}

core::OperatorClient& WireFabric::attach_operator(std::uint64_t mgmt_latency_ns) {
  if (operator_) return *operator_;

  operator_crafter_ = std::make_unique<core::ReportCrafter>(config_.dart);
  mgmt_resolver_ = [this](net::Ipv4Addr ip) { return mgmt_node_of(ip); };

  std::vector<net::Ipv4Addr> service_ips;
  for (std::uint32_t c = 0; c < cluster_->size(); ++c) {
    const auto ip = net::Ipv4Addr::from_octets(10, 0, 200,
                                               static_cast<std::uint8_t>(c));
    service_ips.push_back(ip);
    query_services_.push_back(std::make_unique<core::QueryServiceNode>(
        cluster_->collector(c), ip, mgmt_resolver_));
    // Ownership hash for takeover marking: a served key whose hashed owner
    // is under takeover gets the degraded flag (docs/FAULTS.md).
    query_services_.back()->set_deployment(&cluster_->crafter(),
                                           cluster_->size());
    // Ring deployments key takeover marking by the ring's home mapping.
    if (selector_) query_services_.back()->set_selector(selector_.get());
  }
  const auto operator_ip = net::Ipv4Addr::from_octets(10, 9, 9, 9);
  operator_ = std::make_unique<core::OperatorClient>(
      *operator_crafter_, operator_ip, service_ips, mgmt_resolver_);
  if (selector_) operator_->set_selector(selector_.get());

  const auto op_node = sim_.add_node(*operator_);
  mgmt_nodes_.emplace_back(operator_ip, op_node);
  for (std::uint32_t c = 0; c < query_services_.size(); ++c) {
    const auto node = sim_.add_node(*query_services_[c]);
    mgmt_nodes_.emplace_back(service_ips[c], node);
    sim_.connect(op_node, node, mgmt_latency_ns);
  }
  return *operator_;
}

query::QueryGateway& WireFabric::attach_gateway(std::uint64_t mgmt_latency_ns) {
  if (gateway_) return *gateway_;
  (void)attach_operator(mgmt_latency_ns);  // services, resolver, crafter

  query::QueryGatewayConfig gw_config;
  gw_config.gateway_ip = net::Ipv4Addr::from_octets(10, 9, 2, 254);
  for (std::uint32_t c = 0; c < cluster_->size(); ++c) {
    gw_config.virtual_ips.push_back(
        net::Ipv4Addr::from_octets(10, 9, 2, static_cast<std::uint8_t>(c)));
    gw_config.service_ips.push_back(query_services_[c]->ip());
  }
  // Per-try upstream deadline: comfortably above one management RTT so a
  // healthy service never races its own retry, small enough that a dead one
  // fails fast.
  gw_config.request_timeout_ns = 8 * mgmt_latency_ns + 1'000'000;
  gateway_ = std::make_unique<query::QueryGateway>(
      gw_config, *operator_crafter_, mgmt_resolver_);
  if (selector_) gateway_->set_selector(selector_.get());

  const auto gw_node = sim_.add_node(*gateway_);
  mgmt_nodes_.emplace_back(gw_config.gateway_ip, gw_node);
  for (std::uint32_t c = 0; c < cluster_->size(); ++c) {
    mgmt_nodes_.emplace_back(gw_config.virtual_ips[c], gw_node);
  }
  // Gateway ↔ every service, and gateway ↔ the plain operator (so the
  // existing operator can subscribe to standing queries directly).
  for (std::uint32_t c = 0; c < query_services_.size(); ++c) {
    sim_.connect(gw_node, *mgmt_node_of(query_services_[c]->ip()),
                 mgmt_latency_ns);
  }
  sim_.connect(gw_node, *mgmt_node_of(operator_->ip()), mgmt_latency_ns);

  // Gateway-fronted operator: same client code, but its "services" are the
  // gateway's virtual IPs — all traffic rides the gateway transparently.
  const auto gw_operator_ip = net::Ipv4Addr::from_octets(10, 9, 9, 10);
  gateway_operator_ = std::make_unique<core::OperatorClient>(
      *operator_crafter_, gw_operator_ip, gw_config.virtual_ips,
      mgmt_resolver_);
  if (selector_) gateway_operator_->set_selector(selector_.get());
  const auto gw_op_node = sim_.add_node(*gateway_operator_);
  mgmt_nodes_.emplace_back(gw_operator_ip, gw_op_node);
  sim_.connect(gw_op_node, gw_node, mgmt_latency_ns);
  return *gateway_;
}

std::optional<net::NodeId> WireFabric::mgmt_node_of(net::Ipv4Addr ip) const {
  for (const auto& [addr, node] : mgmt_nodes_) {
    if (addr == ip) return node;
  }
  return std::nullopt;
}

void WireFabric::send_flow(const FiveTuple& flow, std::uint32_t src_host,
                           std::uint32_t count, std::size_t payload_bytes) {
  payload_.assign(payload_bytes, std::byte{0x5A});
  for (std::uint32_t i = 0; i < count; ++i) {
    hosts_[src_host]->send_udp(flow, payload_);
  }
}

std::optional<std::vector<std::uint32_t>> WireFabric::query_path(
    const FiveTuple& flow) const {
  const auto key = flow.key_bytes();
  const auto result = cluster_->query(key);
  if (result.outcome != core::QueryOutcome::kFound) return std::nullopt;
  auto ids = IntStack::decode_switch_ids(result.value);
  for (auto& id : ids) id -= 1;  // wire id → topo id
  return ids;
}

std::optional<IntHopMetadata> WireFabric::query_postcard(
    std::uint32_t switch_id, const FiveTuple& flow) const {
  const auto key = postcard_key(switch_id + 1, flow);  // wire id = topo id + 1
  const auto result = cluster_->query(key);
  if (result.outcome != core::QueryOutcome::kFound) return std::nullopt;
  if (result.value.size() < 12) return std::nullopt;
  IntHopMetadata hop;
  hop.switch_id = load_be32(result.value.data());
  hop.queue_depth = load_be32(result.value.data() + 4);
  hop.hop_latency_ns = load_be32(result.value.data() + 8);
  return hop;
}

std::uint64_t WireFabric::host_received(std::uint32_t host) const {
  return hosts_[host]->received();
}

WireFabricStats WireFabric::stats() const {
  WireFabricStats s;
  for (const auto& host : hosts_) {
    s.host_packets_sent += host->sent();
    s.host_packets_received += host->received();
  }
  for (const auto& sw : switches_) {
    s.switch_hops += sw->stats().forwarded;
    s.int_sources += sw->stats().int_sources;
    s.int_sinks += sw->stats().int_sinks;
    s.int_overhead_bytes += sw->stats().int_overhead_bytes;
    s.reports_emitted += sw->stats().reports_emitted;
    s.routing_drops += sw->stats().routing_drops;
    s.max_reported_queue_depth = std::max(
        s.max_reported_queue_depth, sw->stats().max_reported_queue_depth);
    s.postcard_observations += sw->stats().postcard_observations;
    s.postcard_reports += sw->stats().postcard_reports;
  }
  return s;
}

}  // namespace dart::telemetry
