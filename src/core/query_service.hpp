// Collector-side query service and the wire operator client (§3.2) as
// fabric simulator nodes.
//
// QueryServiceNode fronts one Collector: it terminates UDP/4800, dispatches
// each request on its frame kind (query_protocol.hpp), resolves it against
// the collector's store, primitives or sketch, and sends every reply from
// one place, to the requester's IP. This — not report ingest — is where the
// collector CPU does its work. Well-formed frames that simply are not
// addressed to this node (wrong dst IP or port) count as `not_for_me`,
// distinct from `malformed` protocol errors, so routing noise never trips a
// protocol-error alert.
//
// OperatorClient is the wire front end of the client core (query_client.hpp),
// which builds the requests and parses and files the answers. The client
// adds the routing of Fig. 2's query flow — hash key → collector id →
// directory lookup — and the wire: it books every request it sends in an
// InflightTable, and a response is accepted only if it is addressed to this
// client, parses, AND matches an in-flight id, so duplicated or replayed
// responses (UDP can deliver both) neither corrupt `pending()` nor
// overwrite an already-recorded answer. Queries to distinct collectors can
// be in flight simultaneously, and with enable_timeouts() armed a lost
// response no longer parks its id forever: the deadline fires, the request
// is resent under a FRESH wire id (the stale id stays acceptable — whichever
// copy answers first retires the request exactly once), and after
// `max_retries` resends the request is failed with a timeout mark instead of
// leaking into pending().
//
// Both nodes export their counters through obs::MetricRegistry via
// bind_metrics(); the service additionally records a sampled query-resolve
// latency histogram (the paper's "collector CPU cost" observable).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/collector.hpp"
#include "core/collector_ring.hpp"
#include "core/query_client.hpp"
#include "core/query_protocol.hpp"
#include "core/report_crafter.hpp"
#include "net/netsim.hpp"
#include "obs/metric.hpp"

namespace dart::core {

// Resolves an IPv4 address to the simulator node that owns it (the fabric's
// ARP/routing stand-in for the management network).
using IpResolver = std::function<std::optional<net::NodeId>(net::Ipv4Addr)>;

// Frames `payload` as UDP/4800 from `from` to `to` and sends it from node
// `self`; false (nothing sent) without a simulator or if `to` does not
// resolve — the caller drops it, like real UDP.
bool send_query_frame(net::Simulator* sim, net::NodeId self,
                      const IpResolver& resolver, net::Ipv4Addr from,
                      net::Ipv4Addr to, std::span<const std::byte> payload);

class QueryServiceNode final : public net::Node {
 public:
  QueryServiceNode(Collector& collector, net::Ipv4Addr service_ip,
                   IpResolver resolver)
      : collector_(&collector), ip_(service_ip), resolver_(std::move(resolver)) {}

  void receive(net::Packet packet, std::uint64_t now_ns) override;

  // Registers this service's counters under `<prefix>_query_*` and creates
  // the sampled resolve-latency histogram `<prefix>_query_resolve_ns`.
  // Call once per registry; the registry must outlive this node's use.
  void bind_metrics(obs::MetricRegistry& registry, const std::string& prefix);

  // --- degradation control plane (docs/FAULTS.md) --------------------------

  // Ownership hash for takeover marking: with these set, a served key whose
  // hashed owner is under takeover gets the degraded flag.
  void set_deployment(const ReportCrafter* crafter,
                      std::uint32_t n_collectors) noexcept {
    crafter_for_owner_ = crafter;
    n_collectors_ = n_collectors;
  }

  // Ring deployments: degradation is keyed by a key's HOME owner (the
  // full-membership mapping) — after a failover rebuild the live owner of a
  // moved key is a survivor, but the data lost with the death belongs to
  // whatever the bring-up ring assigned. Takes precedence over
  // set_deployment's modulo mapping when set; not owned.
  void set_selector(const CollectorSelector* selector) noexcept {
    selector_ = selector;
  }

  // A dead collector's service answers nothing (count: dropped_offline).
  void set_online(bool online) noexcept { online_ = online; }
  [[nodiscard]] bool online() const noexcept { return online_; }

  // Staleness counters saturate here instead of wrapping: a collector that
  // stays dead across >65535 rotations must keep reading "maximally stale",
  // not wrap back to "fresh".
  static constexpr std::uint16_t kStaleEpochsSaturated = 0xFFFF;

  // This service is answering for dead collector `owner_id`; answers for
  // that owner's keys carry the degraded flag plus the epochs of data that
  // were lost with the owner (in-flight reports are lost by design).
  // Re-declaring an already-marked owner accumulates (saturating): each call
  // reports additional lost epochs, not a replacement estimate.
  void begin_takeover(std::uint32_t owner_id, std::uint16_t stale_epochs) {
    auto [it, inserted] = takeovers_.try_emplace(owner_id, stale_epochs);
    if (!inserted) it->second = sat_add16(it->second, stale_epochs);
  }
  void end_takeover(std::uint32_t owner_id) { takeovers_.erase(owner_id); }

  // An epoch rotation happened while the marks above are standing: every
  // owner still under takeover (and any local degradation) is now one more
  // epoch stale. Saturates at kStaleEpochsSaturated.
  void note_rotation() noexcept {
    for (auto& [owner, stale] : takeovers_) stale = sat_add16(stale, 1);
    if (self_stale_epochs_ != 0) {
      self_stale_epochs_ = sat_add16(self_stale_epochs_, 1);
    }
  }

  // Current staleness recorded for a takeover, if one is standing.
  [[nodiscard]] std::optional<std::uint16_t> takeover_stale_epochs(
      std::uint32_t owner_id) const {
    const auto it = takeovers_.find(owner_id);
    if (it == takeovers_.end()) return std::nullopt;
    return it->second;
  }

  // Local degradation: this collector's own store lost reports (QP error /
  // RNIC stall window); every answer is flagged until cleared.
  void set_self_degraded(std::uint16_t stale_epochs) noexcept {
    self_stale_epochs_ = stale_epochs;
  }
  void clear_self_degraded() noexcept { self_stale_epochs_ = 0; }

  [[nodiscard]] net::Ipv4Addr ip() const noexcept { return ip_; }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return served_;
  }
  // Protocol errors: unparsable frames or bad DQ payloads addressed to us.
  [[nodiscard]] std::uint64_t malformed_requests() const noexcept {
    return malformed_;
  }
  // Well-formed frames for some other node (wrong dst IP or UDP port).
  [[nodiscard]] std::uint64_t not_for_me() const noexcept {
    return not_for_me_;
  }
  // Served responses that carried the degraded flag.
  [[nodiscard]] std::uint64_t degraded_served() const noexcept {
    return degraded_;
  }
  // Requests eaten while offline (the collector is dead).
  [[nodiscard]] std::uint64_t dropped_offline() const noexcept {
    return dropped_offline_;
  }
  // DTA primitive requests served (subset of requests_served()).
  [[nodiscard]] std::uint64_t primitives_served() const noexcept {
    return primitives_served_;
  }
  // Primitive requests answered with kResponsePrimitiveUnavailable because
  // the collector has no primitive regions enabled.
  [[nodiscard]] std::uint64_t primitives_unavailable() const noexcept {
    return primitives_unavailable_;
  }
  // Sketch requests served (subset of requests_served()).
  [[nodiscard]] std::uint64_t sketch_served() const noexcept {
    return sketch_served_;
  }
  // Sketch requests answered with kResponseSketchUnavailable because the
  // collector's storage backend is not a sketch.
  [[nodiscard]] std::uint64_t sketch_unavailable() const noexcept {
    return sketch_unavailable_;
  }

 private:
  static constexpr std::uint16_t sat_add16(std::uint16_t a,
                                           std::uint16_t b) noexcept {
    const std::uint32_t sum = static_cast<std::uint32_t>(a) + b;
    return sum > kStaleEpochsSaturated
               ? kStaleEpochsSaturated
               : static_cast<std::uint16_t>(sum);
  }

  // Degraded/staleness marking shared by the KV path and the keyed primitive
  // ops: flags/stale for a response about `key` (empty key ⇒ only local
  // degradation applies, the drain-ring case).
  void apply_degradation(std::span<const std::byte> key, std::uint8_t& flags,
                         std::uint16_t& stale) const;

  // Resolves one parsed KV request; returns the encoded response.
  [[nodiscard]] std::vector<std::byte> serve_query(const QueryRequest& request);

  // Serves one parsed primitive request; returns the encoded response.
  [[nodiscard]] std::vector<std::byte> serve_primitive(
      const PrimitiveRequest& request);

  // Serves one parsed sketch request; returns the encoded response. Estimate
  // answers also feed the collector's heavy-hitter tracker — tracker
  // maintenance lives entirely on this (query) path so ingest stays
  // zero-CPU.
  [[nodiscard]] std::vector<std::byte> serve_sketch(
      const SketchRequest& request);

  Collector* collector_;
  net::Ipv4Addr ip_;
  IpResolver resolver_;
  const ReportCrafter* crafter_for_owner_ = nullptr;
  std::uint32_t n_collectors_ = 0;
  const CollectorSelector* selector_ = nullptr;
  std::unordered_map<std::uint32_t, std::uint16_t> takeovers_;
  std::uint16_t self_stale_epochs_ = 0;
  bool online_ = true;
  std::uint64_t served_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t not_for_me_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t dropped_offline_ = 0;
  std::uint64_t primitives_served_ = 0;
  std::uint64_t primitives_unavailable_ = 0;
  std::uint64_t sketch_served_ = 0;
  std::uint64_t sketch_unavailable_ = 0;
  obs::Histogram* resolve_hist_ = nullptr;  // owned by the bound registry
  std::uint32_t resolve_sample_every_ = 8;
  std::uint64_t resolve_samples_ = 0;
};

class OperatorClient final : public net::Node, public ClientCore {
 public:
  // `crafter` supplies the deployment hash family for collector selection;
  // `service_ips[i]` is the query-service address of collector i.
  OperatorClient(const ReportCrafter& crafter, net::Ipv4Addr my_ip,
                 std::vector<net::Ipv4Addr> service_ips, IpResolver resolver)
      : crafter_(&crafter), ip_(my_ip), service_ips_(std::move(service_ips)),
        resolver_(std::move(resolver)) {}

  void receive(net::Packet packet, std::uint64_t now_ns) override;

  // --- standing queries (query_protocol.hpp, gateway v1) --------------------
  //
  // Registration rides the same outstanding-id discipline as the reads (the
  // ack retires the request); notifications are unsolicited pushes, drained
  // with take_notifications(). `gateway_ip` addresses the QueryGateway
  // (src/query/gateway.hpp) — plain services ignore these frames. Returns 0
  // if the request could not be sent.

  std::uint64_t subscribe_key_change(net::Ipv4Addr gateway_ip,
                                     std::span<const std::byte> key) {
    return subscribe(gateway_ip, key_change_request(key));
  }
  std::uint64_t subscribe_counter_threshold(net::Ipv4Addr gateway_ip,
                                            std::span<const std::byte> key,
                                            std::uint64_t threshold) {
    return subscribe(gateway_ip, counter_threshold_request(key, threshold));
  }
  std::uint64_t subscribe_topk_delta(net::Ipv4Addr gateway_ip,
                                     std::uint32_t collector_id,
                                     std::uint16_t k) {
    return subscribe(gateway_ip, topk_delta_request(collector_id, k));
  }
  std::uint64_t unsubscribe(net::Ipv4Addr gateway_ip,
                            std::uint64_t subscription_id) {
    return subscribe(gateway_ip, unsubscribe_request(subscription_id));
  }

  // --- request deadlines (off by default) -----------------------------------
  //
  // Arms a per-request deadline: if no response arrived within `timeout_ns`
  // of the send, the request is re-sent under a fresh wire id (up to
  // `max_retries` times), then failed. A failed request leaves pending(),
  // counts in timeouts(), and answers timed_out(id) == true; a duplicated
  // late response — for the original id or any retry — retires the request
  // at most once, with extras counted unexpected. Requires the client to be
  // attached to a simulator (deadlines are sim-scheduled events).
  void enable_timeouts(std::uint64_t timeout_ns, std::uint32_t max_retries) {
    timeout_ns_ = timeout_ns;
    max_retries_ = max_retries;
  }
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] bool timed_out(std::uint64_t request_id) const {
    return timed_out_ids_.contains(request_id);
  }

  // Registers this client's counters under `<prefix>_operator_*`.
  void bind_metrics(obs::MetricRegistry& registry, const std::string& prefix);

  // --- failover control plane (docs/FAULTS.md) -----------------------------

  // The operator's epoch counter, stamped into every request and echoed by
  // the service so staleness is computable per response.
  void set_epoch(std::uint32_t epoch) noexcept { epoch_ = epoch; }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }

  // Redirects queries for keys owned by dead collector `owner_id` to the
  // backup's query service (the directory update the controller pushes when
  // liveness declares a death). clear_retarget undoes it on recovery.
  void retarget(std::uint32_t owner_id, std::uint32_t backup_id) {
    retargets_[owner_id] = backup_id;
  }
  void clear_retarget(std::uint32_t owner_id) { retargets_.erase(owner_id); }

  // Ring deployments: route keys through the live consistent-hash selector
  // instead of crafter->collector_of (queries then follow the reports to the
  // survivors the ring picked — no retarget map needed). Not owned; must
  // outlive this client.
  void set_selector(const CollectorSelector* selector) noexcept {
    selector_ = selector;
  }

  [[nodiscard]] net::Ipv4Addr ip() const noexcept { return ip_; }
  // Requests sent and not yet answered (first matching response retires one).
  [[nodiscard]] std::size_t pending() const noexcept {
    return inflight_.size();
  }
  [[nodiscard]] std::uint64_t queries_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t responses_received() const noexcept {
    return received_;
  }
  // Responses addressed to some other client (dst IP mismatch) — delivered
  // here by a misrouted underlay, never recorded as ours.
  [[nodiscard]] std::uint64_t stray_responses() const noexcept {
    return stray_;
  }
  // Well-addressed responses with no outstanding request id: duplicates,
  // replays, or answers to requests we never sent.
  [[nodiscard]] std::uint64_t unexpected_responses() const noexcept {
    return unexpected_;
  }
  // Accepted responses that carried the degraded flag — the operator-visible
  // signal that an answer came from a backup or a lossy store.
  [[nodiscard]] std::uint64_t degraded_responses() const noexcept {
    return degraded_;
  }

 private:
  // Keyed reads go to the retarget-aware owner of the key, the
  // collector-addressed ones to the collector they name.
  bool dispatch(ReadRequest read) override;
  [[nodiscard]] std::uint32_t request_epoch() const override { return epoch_; }
  // Any wire id of a request in flight retires it; the original's id is
  // the one the caller holds.
  std::optional<std::uint64_t> settle(std::uint64_t wire_id) override;
  std::uint64_t subscribe(net::Ipv4Addr gateway_ip, SubscribeRequest request);

  // Sends `payload` to `ip` and books it in flight under the id it carries;
  // false if `ip` does not resolve (an unreachable service can never answer,
  // so its request must not inflate pending()).
  bool send_tracked(net::Ipv4Addr ip, std::vector<std::byte> payload);
  [[nodiscard]] bool send_to_ip(net::Ipv4Addr ip,
                                std::span<const std::byte> payload);
  // Retarget-aware service selection for a hashed key.
  [[nodiscard]] std::uint32_t route_of(std::span<const std::byte> key) const;
  void arm_deadline(std::uint64_t logical_id, std::uint64_t wire_id);
  void on_deadline(std::uint64_t logical_id, std::uint64_t wire_id);

  const ReportCrafter* crafter_;
  const CollectorSelector* selector_ = nullptr;
  net::Ipv4Addr ip_;
  std::vector<net::Ipv4Addr> service_ips_;
  IpResolver resolver_;
  InflightTable<net::Ipv4Addr> inflight_;  // extra: where the request went
  std::unordered_set<std::uint64_t> timed_out_ids_;
  std::unordered_map<std::uint32_t, std::uint32_t> retargets_;
  std::uint32_t epoch_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t stray_ = 0;
  std::uint64_t unexpected_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t timeout_ns_ = 0;  // 0 = deadlines disarmed
  std::uint32_t max_retries_ = 0;
};

}  // namespace dart::core
