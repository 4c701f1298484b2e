// QueryGateway — the production query plane in front of the collector pool
// (docs/QUERY_PLANE.md).
//
// DTA moves the collector CPU budget from ingest to query answering (§3.2),
// which makes the query path the thing that saturates first in production.
// The gateway multiplexes thousands of operator sessions over the pool:
//
//  - Pipelining: every session can keep many requests in flight; the gateway
//    books each upstream read in the same InflightTable OperatorClient uses
//    (core/query_client.hpp), re-stamping ids at the boundary so upstream
//    and downstream id spaces never mix. An upstream answer retires its read
//    only once it parses; one that does not stays in flight and counts as
//    malformed, so the deadline asks again.
//  - Coalescing: concurrent identical reads (same collector, op, key) ride
//    ONE upstream request; every waiter gets a copy of the single answer
//    with its own id and epoch patched back in.
//  - Caching: answers to idempotent reads are kept in a ResultCache bounded
//    by the epoch machinery — a hit's age in epochs is added to the
//    response's stale_epochs, so cached answers are exactly as honest about
//    staleness as live ones (result_cache.hpp).
//  - Standing queries (Sonata-style): operators register a predicate once —
//    key-change, counter-threshold, or top-k-delta — and the gateway
//    evaluates all predicates on every epoch tick, PUSHING a notification
//    frame when one fires instead of being polled.
//  - SLOs: per-family latency histograms (p50/p99 via HistogramSnapshot) and
//    saturation gauges (inflight, high-water, sessions, standing) are
//    exported through obs::MetricRegistry.
//
// Deployment shape: the gateway is one net::Node holding the gateway IP plus
// one VIRTUAL IP per collector. Wire clients (unmodified OperatorClient)
// are pointed at the virtual IPs — the dst address names the target
// collector, so collector-addressed ops (drain-ring, top-k) need no wire
// change — while keyed ops may also target the gateway IP directly and be
// hash-routed. In-process GatewaySession handles carry the same traffic
// without per-client simulator nodes, which is what lets the scaling bench
// drive 4096 concurrent clients. A session is the in-process front end of
// the same client core OperatorClient runs on: the same reads, subscribe
// requests and answer accessors.
//
// Upstream timeouts reuse the deadline+retry discipline: a lost upstream
// response is retried under a fresh upstream id, and when retries are
// exhausted every waiter receives a synthesized response flagged
// kResponseDegraded | kResponseGatewayTimeout — requests never park forever.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query_client.hpp"
#include "core/query_protocol.hpp"
#include "net/headers.hpp"
#include "core/query_service.hpp"
#include "core/report_crafter.hpp"
#include "net/netsim.hpp"
#include "obs/metric.hpp"
#include "query/result_cache.hpp"

namespace dart::query {

struct QueryGatewayConfig {
  net::Ipv4Addr gateway_ip{};                // subscribe + keyed-op front door
  std::vector<net::Ipv4Addr> virtual_ips;    // per-collector wire front, [c]
  std::vector<net::Ipv4Addr> service_ips;    // upstream query services, [c]
  std::uint64_t request_timeout_ns = 2'000'000;  // per upstream try
  std::uint32_t max_retries = 2;                 // upstream resends per request
  std::size_t cache_capacity = 4096;             // ResultCache entries
  std::uint64_t cache_max_age_epochs = 0;        // 0 = same-epoch hits only
  double latency_hist_max_ns = 20'000'000.0;     // SLO histogram upper bound
  std::size_t latency_hist_buckets = 200;
};

class QueryGateway;

// One operator's in-process handle on the gateway: the client core's six
// reads and take_* accessors plus the four subscribe ops, minus the wire.
// Requests return a session-local id; answers arrive via the take_*
// accessors after the simulator has run (cache hits and subscribe acks at
// once). Every request carries the gateway's epoch. Sessions are created by
// QueryGateway::open_session and owned by the gateway.
class GatewaySession final : public core::ClientCore {
 public:
  std::uint64_t subscribe_key_change(std::span<const std::byte> key) {
    return subscribe(key_change_request(key));
  }
  std::uint64_t subscribe_counter_threshold(std::span<const std::byte> key,
                                            std::uint64_t threshold) {
    return subscribe(counter_threshold_request(key, threshold));
  }
  std::uint64_t subscribe_topk_delta(std::uint32_t collector_id,
                                     std::uint16_t k) {
    return subscribe(topk_delta_request(collector_id, k));
  }
  std::uint64_t unsubscribe(std::uint64_t subscription_id) {
    return subscribe(unsubscribe_request(subscription_id));
  }

  // Requests issued and not yet answered.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }
  [[nodiscard]] std::uint64_t answered() const noexcept { return answered_; }
  // Answers that carried the degraded flag (includes gateway timeouts).
  [[nodiscard]] std::uint64_t degraded() const noexcept { return degraded_; }
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

 private:
  friend class QueryGateway;
  GatewaySession(QueryGateway* gateway, std::size_t index)
      : gateway_(gateway), index_(index) {}

  // Reads are submitted to the gateway, stamped with its epoch.
  bool dispatch(core::ReadRequest read) override;
  [[nodiscard]] std::uint32_t request_epoch() const override;
  // The gateway re-stamps every answer with the session's own id.
  std::optional<std::uint64_t> settle(std::uint64_t id) override { return id; }
  // Subscribes are answered in process: the ack is filed before this
  // returns.
  std::uint64_t subscribe(core::SubscribeRequest request);

  // Called by the gateway when this session's answer is ready. `payload` is
  // the encoded response, already re-stamped with this session's id/epoch.
  void deliver(std::span<const std::byte> payload);

  QueryGateway* gateway_;
  std::size_t index_;
  std::size_t pending_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t answered_ = 0;
};

class QueryGateway final : public net::Node {
 public:
  // `crafter` supplies the deployment hash for key→collector routing (the
  // same family switches and clients use, so routing agrees everywhere).
  QueryGateway(QueryGatewayConfig config, const core::ReportCrafter& crafter,
               core::IpResolver resolver);

  void receive(net::Packet packet, std::uint64_t now_ns) override;

  // Opens an in-process operator session (owned by the gateway; stable
  // address for the gateway's lifetime).
  [[nodiscard]] GatewaySession& open_session();
  [[nodiscard]] std::size_t n_sessions() const noexcept {
    return sessions_.size();
  }

  // Epoch tick from the rotation machinery: advances the staleness anchor
  // the cache ages against and evaluates every standing predicate (which may
  // push notifications once the resulting upstream reads complete).
  void on_epoch(std::uint64_t epoch);
  [[nodiscard]] std::uint64_t gateway_epoch() const noexcept { return epoch_; }

  // Failover redirect, mirroring OperatorClient::retarget: requests routed
  // at dead collector `owner_id` — by key hash or by virtual IP — go to
  // `backup_id`'s service instead.
  void retarget(std::uint32_t owner_id, std::uint32_t backup_id) {
    retargets_[owner_id] = backup_id;
  }
  void clear_retarget(std::uint32_t owner_id) { retargets_.erase(owner_id); }

  // Ring deployments: key-hashed routing consults the live consistent-hash
  // selector instead of crafter->collector_of, so a membership change
  // re-routes exactly the moved keys — standing queries included, since
  // every epoch's predicate evaluation re-resolves through route_key. The
  // caller keeps ownership and must invalidate_collector() on the cache when
  // it changes the membership (the fault plane does; see RecoveryManager).
  void set_selector(const core::CollectorSelector* selector) noexcept {
    selector_ = selector;
  }

  // Registers `<prefix>_gateway_*` counters/gauges and the per-family
  // latency histograms `<prefix>_gateway_latency_{kv,primitive,sketch}_ns`.
  void bind_metrics(obs::MetricRegistry& registry, const std::string& prefix);

  [[nodiscard]] const QueryGatewayConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }
  [[nodiscard]] std::size_t inflight() const noexcept {
    return upstream_.size();
  }
  [[nodiscard]] std::size_t inflight_highwater() const noexcept {
    return inflight_highwater_;
  }
  [[nodiscard]] std::size_t n_standing() const noexcept {
    return standing_.size();
  }
  [[nodiscard]] std::uint64_t requests_total() const noexcept {
    return requests_;
  }
  [[nodiscard]] std::uint64_t coalesced_total() const noexcept {
    return coalesced_;
  }
  [[nodiscard]] std::uint64_t upstream_sent() const noexcept {
    return upstream_sent_;
  }
  [[nodiscard]] std::uint64_t upstream_retries() const noexcept {
    return upstream_retries_;
  }
  [[nodiscard]] std::uint64_t upstream_timeouts() const noexcept {
    return upstream_timeouts_;
  }
  [[nodiscard]] std::uint64_t upstream_unexpected() const noexcept {
    return upstream_unexpected_;
  }
  [[nodiscard]] std::uint64_t notifications_sent() const noexcept {
    return notifications_sent_;
  }
  [[nodiscard]] std::uint64_t subscribes_accepted() const noexcept {
    return subscribes_accepted_;
  }
  [[nodiscard]] std::uint64_t subscribes_rejected() const noexcept {
    return subscribes_rejected_;
  }
  // Per-family latency snapshot (sim-time ns, cache hits recorded as 0).
  [[nodiscard]] obs::HistogramSnapshot latency_kv() const {
    return hist_kv_.snapshot();
  }
  [[nodiscard]] obs::HistogramSnapshot latency_primitive() const {
    return hist_primitive_.snapshot();
  }
  [[nodiscard]] obs::HistogramSnapshot latency_sketch() const {
    return hist_sketch_.snapshot();
  }

 private:
  friend class GatewaySession;

  // Protocol family of one request/response, used for cache keys, latency
  // attribution, and timeout synthesis.
  enum class Family : std::uint8_t { kKv = 1, kPrimitive = 2, kSketch = 3 };

  // Who is waiting on an upstream answer.
  struct Origin {
    enum class Kind : std::uint8_t { kWire, kSession, kStanding };
    Kind kind = Kind::kSession;
    net::Ipv4Addr client_ip{};   // kWire: reply destination
    net::Ipv4Addr reply_from{};  // kWire: source IP of the reply frame
    std::size_t session = 0;     // kSession
    std::uint64_t sub_id = 0;    // kStanding
    std::uint64_t downstream_id = 0;  // id to re-stamp into the answer
    std::uint32_t epoch = 0;          // epoch to re-stamp into the answer
  };

  // What the gateway keeps per upstream read in flight (the InflightTable
  // extra): its family and cache identity, and every downstream waiter
  // coalesced onto it.
  struct Upstream {
    std::uint32_t collector = 0;
    Family family = Family::kKv;
    std::uint8_t op = 0;  // policy byte (KV) / op byte (primitive, sketch)
    std::vector<Origin> waiters;
    std::uint64_t first_enqueued_ns = 0;
    bool cacheable = false;
    CacheKey cache_key;
  };
  using UpstreamTable = core::InflightTable<Upstream>;

  // One registered standing predicate plus its evaluation state.
  struct Standing {
    core::StandingKind kind = core::StandingKind::kKeyChange;
    Origin subscriber;  // kWire (client addr) or kSession; downstream unused
    std::vector<std::byte> key;
    std::uint64_t threshold = 0;
    std::uint16_t k = 0;
    std::uint32_t collector = 0;  // kTopKDelta
    std::uint64_t seq = 0;        // notifications pushed so far
    // kKeyChange state.
    bool has_last = false;
    core::QueryOutcome last_outcome = core::QueryOutcome::kEmpty;
    std::vector<std::byte> last_value;
    // kCounterThreshold state: fires on upward crossing, re-arms below.
    bool armed = true;
    // kTopKDelta state: current membership.
    std::set<std::vector<std::byte>> members;
  };

  // Downstream entry points (wire + session + standing share submit).
  bool submit(core::ReadRequest read, std::uint32_t collector, Origin origin);
  bool session_submit(GatewaySession& session, core::ReadRequest read);
  [[nodiscard]] core::SubscribeAck do_subscribe(
      const core::SubscribeRequest& request, Origin subscriber);
  void handle_wire_request(const net::ParsedUdpFrame& frame,
                           core::FrameKind kind,
                           std::optional<std::uint32_t> vip_collector);
  void handle_subscribe(const net::ParsedUdpFrame& frame);
  std::optional<std::uint64_t> register_standing(const core::SubscribeRequest& req,
                                                 Origin subscriber);

  // Upstream half.
  void send_upstream(const UpstreamTable::Entry& rec);
  void handle_upstream_response(core::FrameKind kind,
                                std::span<const std::byte> payload,
                                std::uint64_t now_ns);
  void arm_deadline(std::uint64_t logical_id, std::uint64_t wire_id);
  void on_deadline(std::uint64_t logical_id, std::uint64_t wire_id);
  [[nodiscard]] std::vector<std::byte> synthesize_timeout(
      const Upstream& rec) const;

  // Fan-out: copy `payload`, patch the waiter's id/epoch (and optional cache
  // age) into the shared response header, and deliver.
  void deliver(const Origin& origin, std::span<const std::byte> payload,
               std::uint64_t age_epochs);
  void push_notification(std::uint64_t sub_id, Standing& st,
                         core::StandingNotification note);
  // Frames `payload` to a wire client or service; dropped if `to` does not
  // resolve, like real UDP.
  void send(net::Ipv4Addr from, net::Ipv4Addr to,
            std::span<const std::byte> payload);

  // Standing evaluation (driven by on_epoch via internal upstream reads).
  void evaluate_standing(std::uint64_t sub_id,
                         std::span<const std::byte> payload);

  [[nodiscard]] static Family family_of(core::FrameKind kind);
  [[nodiscard]] std::uint32_t apply_retarget(std::uint32_t collector) const;
  [[nodiscard]] std::uint32_t route_key(std::span<const std::byte> key) const;
  // Keyed reads by key hash, collector-addressed ones by the collector they
  // name; retargets apply to both.
  [[nodiscard]] std::uint32_t route(const core::ReadRequest& read) const;
  void record_latency(Family family, double ns);
  [[nodiscard]] obs::Histogram& hist_of(Family family);

  QueryGatewayConfig config_;
  const core::ReportCrafter* crafter_;
  const core::CollectorSelector* selector_ = nullptr;
  core::IpResolver resolver_;
  // dst-IP → collector index (virtual IPs); the gateway IP maps to "hash it".
  std::unordered_map<std::uint32_t, std::uint32_t> vip_index_;
  std::unordered_map<std::uint32_t, std::uint32_t> retargets_;
  ResultCache cache_;
  std::deque<std::unique_ptr<GatewaySession>> sessions_;

  UpstreamTable upstream_;
  std::unordered_map<CacheKey, std::uint64_t, CacheKeyHash> coalesce_;
  std::unordered_map<std::uint64_t, Standing> standing_;

  std::uint64_t epoch_ = 0;
  std::uint64_t next_upstream_id_ = 1;
  std::uint64_t next_sub_id_ = 1;
  std::size_t inflight_highwater_ = 0;

  std::uint64_t requests_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t upstream_sent_ = 0;
  std::uint64_t upstream_retries_ = 0;
  std::uint64_t upstream_timeouts_ = 0;
  std::uint64_t upstream_unexpected_ = 0;
  std::uint64_t notifications_sent_ = 0;
  std::uint64_t subscribes_accepted_ = 0;
  std::uint64_t subscribes_rejected_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t not_for_me_ = 0;
  std::uint64_t unroutable_ = 0;

  // Owned SLO histograms (also exposed through bind_metrics as gauges over
  // these instances would race registration; instead bind_metrics registers
  // pull adapters over the counters and separate registry histograms mirror
  // these via record_latency).
  obs::Histogram hist_kv_;
  obs::Histogram hist_primitive_;
  obs::Histogram hist_sketch_;
  obs::Histogram* reg_hist_kv_ = nullptr;        // registry mirrors (optional)
  obs::Histogram* reg_hist_primitive_ = nullptr;
  obs::Histogram* reg_hist_sketch_ = nullptr;
};

}  // namespace dart::query
