// WireFabric — a fully packet-forwarding fat-tree datacenter with wire-level
// INT and DART collection, built on the event-driven network simulator.
//
// It models the paper's running example, INT path tracing on a fat tree
// (§1, §5.2), with real Ethernet/IPv4/UDP frames moving hop by hop:
//
//   host ──frame──▶ edge (INT source: encap + push hop)
//                    │ ECMP uplink
//                   agg (INT transit: push hop)
//                    │
//                   core (INT transit) ─▶ agg ─▶ edge (INT sink:
//                        push hop, strip INT, deliver inner frame to host,
//                        craft DART RoCEv2 reports → collector RNIC)
//
// Every switch is a ForwardingSwitch (a net::Node) with hash-based ECMP that
// provably matches FatTree::path (tests assert it); collectors terminate a
// dedicated monitoring underlay (one link per switch), which is where report
// loss is injected. INT telemetry rides the *data* packets, exactly as
// in-band telemetry does (§3, Table 1 row 1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/query_service.hpp"
#include "net/netsim.hpp"
#include "obs/metric.hpp"
#include "query/gateway.hpp"
#include "switchsim/dart_switch.hpp"
#include "switchsim/topology.hpp"
#include "telemetry/event_detect.hpp"
#include "telemetry/flow.hpp"
#include "telemetry/int_wire.hpp"

namespace dart::telemetry {

struct WireFabricConfig {
  std::uint32_t fat_tree_k = 4;
  core::DartConfig dart;
  std::uint32_t n_collectors = 1;
  core::WriteMode switch_write_mode = core::WriteMode::kAllSlots;
  double report_loss_rate = 0.0;       // on the monitoring underlay
  std::uint64_t link_latency_ns = 1000;
  // Data-link shaping: finite bandwidth serializes packets and builds real
  // egress queues, which INT's queue-depth metadata then reports. Default:
  // ideal links (no queuing).
  net::LinkShape data_link_shape{};
  std::uint8_t int_max_hops = 8;
  std::uint16_t int_instructions = kIntInsSwitchId;
  // Postcard mode (Table 1 row 2): every switch on the path reports its own
  // (switch, flow) hop record, gated by a per-switch ChangeDetector on the
  // observed queue depth (§2's event filter) so stable flows stay quiet.
  bool postcards = false;
  ChangeDetectorConfig postcard_detector{};
  std::uint64_t seed = 1;
};

struct WireFabricStats {
  std::uint64_t host_packets_sent = 0;
  std::uint64_t host_packets_received = 0;
  std::uint64_t switch_hops = 0;          // per-switch forwarding events
  std::uint64_t int_sources = 0;          // encapsulations at ingress edges
  std::uint64_t int_sinks = 0;            // decapsulations at egress edges
  std::uint64_t int_overhead_bytes = 0;   // INT bytes removed at sinks
  std::uint64_t reports_emitted = 0;      // RoCEv2 frames toward collectors
  std::uint64_t routing_drops = 0;        // unparsable, or for no fabric host
  std::uint32_t max_reported_queue_depth = 0;  // deepest queue seen by INT
  std::uint64_t postcard_observations = 0;  // per-switch per-packet checks
  std::uint64_t postcard_reports = 0;       // postcards that fired
};

// Node id directory shared by all switches (who is where in the simulator).
struct FabricDirectory {
  std::vector<net::NodeId> switch_nodes;    // by topology switch id
  std::vector<net::NodeId> host_nodes;      // by host id
  std::vector<net::NodeId> collector_nodes; // by collector id
};

class HostNode;
class ForwardingSwitch;

class WireFabric {
 public:
  explicit WireFabric(const WireFabricConfig& config);
  ~WireFabric();

  WireFabric(const WireFabric&) = delete;
  WireFabric& operator=(const WireFabric&) = delete;

  [[nodiscard]] const switchsim::FatTree& topology() const noexcept {
    return topo_;
  }
  [[nodiscard]] core::CollectorCluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] net::Simulator& simulator() noexcept { return sim_; }

  // Sends `count` UDP packets of `payload_bytes` for the given flow from its
  // source host; INT is added/stripped by the fabric. Call run() to drain.
  void send_flow(const FiveTuple& flow, std::uint32_t src_host,
                 std::uint32_t count = 1, std::size_t payload_bytes = 64);

  // Drains all in-flight events.
  void run() { sim_.run(); }

  // The DART-recorded path of a flow (topology switch ids, path order).
  [[nodiscard]] std::optional<std::vector<std::uint32_t>> query_path(
      const FiveTuple& flow) const;

  // Postcard mode: one switch's latest hop record for a flow.
  [[nodiscard]] std::optional<IntHopMetadata> query_postcard(
      std::uint32_t switch_id, const FiveTuple& flow) const;

  // Packets delivered to a given host (inner frames, post-INT-strip).
  [[nodiscard]] std::uint64_t host_received(std::uint32_t host) const;

  [[nodiscard]] WireFabricStats stats() const;

  // Completes Fig. 2 inside this one simulator: brings up a QueryServiceNode
  // per collector and an OperatorClient, all joined to the management
  // network. Call once; returns the operator (owned by the fabric). Queries
  // then flow as real UDP/4800 frames: operator → service → response.
  [[nodiscard]] core::OperatorClient& attach_operator(
      std::uint64_t mgmt_latency_ns = 50'000);

  // Fronts the query plane with a QueryGateway (docs/QUERY_PLANE.md): the
  // gateway joins the management network holding one virtual IP per
  // collector (10.9.2.c) plus its own front door (10.9.2.254), and a second,
  // gateway-fronted OperatorClient is created whose "service" addresses are
  // those virtual IPs — every one of its queries transparently rides the
  // gateway's pipeline/cache/coalescing. Calls attach_operator() first if
  // needed (the gateway needs the services up). Idempotent.
  [[nodiscard]] query::QueryGateway& attach_gateway(
      std::uint64_t mgmt_latency_ns = 50'000);

  // Query gateway plane, nullptr before attach_gateway().
  [[nodiscard]] query::QueryGateway* gateway() noexcept {
    return gateway_.get();
  }
  [[nodiscard]] core::OperatorClient* gateway_operator_client() noexcept {
    return gateway_operator_.get();
  }

  // --- fault & recovery hooks (src/fault, docs/FAULTS.md) ------------------

  [[nodiscard]] std::uint32_t n_collectors() const noexcept;
  [[nodiscard]] std::uint32_t n_switches() const noexcept;

  // Switch `s`'s egress pipeline (tests: assert the per-switch selection
  // replicas agree with the fabric-wide selector after membership churn).
  [[nodiscard]] switchsim::DartSwitchPipeline& switch_pipeline(std::uint32_t s);

  // The deployment's collector-selection policy (config.dart.selection).
  [[nodiscard]] core::CollectorSelection selection() const noexcept {
    return config_.dart.selection;
  }
  // The fabric-wide live selector (key→collector for the query plane), or
  // nullptr under kModulo. Switch pipelines hold their own replicas built
  // from the same config — determinism makes them agree.
  [[nodiscard]] core::CollectorSelector* selector() noexcept {
    return selector_.get();
  }

  // Ring-mode failover: drops collector `c` from the fabric selector and
  // from every switch pipeline's selection planes (KV + primitives), so
  // reports AND queries for its ~K/N key range re-route to the survivors
  // the ring picks. Any gateway cache entries under `c` are invalidated —
  // answers cached under the old route must not outlive it. No switch row
  // is touched (the ring never selects the dead member). kModulo: no-op.
  void ring_remove_member(std::uint32_t c);

  // Failback undo: re-admits `c` everywhere, restoring the exact pre-death
  // mapping (ring minimal-movement contract), and invalidates cached
  // entries under `c` again — they predate the death.
  void ring_add_member(std::uint32_t c);

  // The monitoring-underlay link switch `s` → collector `c` (the partition /
  // corruption target for report-path faults).
  [[nodiscard]] net::LinkId monitoring_link(std::uint32_t s,
                                            std::uint32_t c) const;

  // Query plane, nullptr before attach_operator().
  [[nodiscard]] core::QueryServiceNode* query_service(std::uint32_t c) noexcept;
  [[nodiscard]] core::OperatorClient* operator_client() noexcept;

  // Failover: re-points every switch's lookup-table row for dead collector
  // `dead` at `backup`'s store — the backup first adopts the dead stream's
  // well-known QPN (Collector::adopt_takeover_qp, fresh PSN window), then
  // each switch rebuilds the row and resets its PSN register
  // (DartSwitchPipeline::retarget_collector). Reports for the dead key range
  // then land in the backup's store at the same slot indices the keys hash
  // to everywhere (the address hash is collector-independent).
  void retarget_collector(std::uint32_t dead, std::uint32_t backup);

  // Recovery undo: collector `c` reconnects its report QP at a fresh PSN and
  // takes its switch rows back.
  void restore_collector(std::uint32_t c);

  // Collector-local QP error recovery: drain-and-reconnect `c`'s report QP
  // and zero every switch's PSN register for `c` (rows stay untouched).
  void reconnect_collector_qp(std::uint32_t c);

  // Registers every component's counters with a MetricRegistry (pull-based;
  // zero cost until snapshot()): per-switch pipeline counters plus fabric
  // sums, per-collector RNIC/QP counters, simulator totals, the monitoring
  // underlay's delivered/dropped link set, and — when attach_operator has
  // already run — the query services and the operator client. Call after
  // attach_operator to cover the query plane; the registry must not outlive
  // this fabric.
  void register_metrics(obs::MetricRegistry& registry,
                        const std::string& prefix = "dart");

 private:
  // The simulator node that holds management-plane address `ip` (the
  // operators, services, gateway and its virtual IPs), or nullopt.
  [[nodiscard]] std::optional<net::NodeId> mgmt_node_of(net::Ipv4Addr ip) const;

  WireFabricConfig config_;
  switchsim::FatTree topo_;
  net::Simulator sim_;
  std::unique_ptr<core::CollectorCluster> cluster_;
  // Live selection state for the query plane (kRing only; see selector()).
  std::unique_ptr<core::CollectorSelector> selector_;
  std::shared_ptr<FabricDirectory> directory_;
  std::vector<std::unique_ptr<HostNode>> hosts_;
  std::vector<std::unique_ptr<ForwardingSwitch>> switches_;
  std::vector<net::LinkId> monitoring_links_;  // switch→collector underlay
  std::vector<std::byte> payload_;  // send_flow's payload, reused per call

  // Management plane (created by attach_operator). Address → node, in the
  // order nodes join; the one resolver every management node sends through
  // reads it (via mgmt_node_of), and outlives them all.
  std::vector<std::pair<net::Ipv4Addr, net::NodeId>> mgmt_nodes_;
  core::IpResolver mgmt_resolver_;
  std::unique_ptr<core::ReportCrafter> operator_crafter_;
  std::vector<std::unique_ptr<core::QueryServiceNode>> query_services_;
  std::unique_ptr<core::OperatorClient> operator_;

  // Gateway plane (created by attach_gateway).
  std::unique_ptr<query::QueryGateway> gateway_;
  std::unique_ptr<core::OperatorClient> gateway_operator_;
};

}  // namespace dart::telemetry
