#include "query/gateway.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"

namespace dart::query {

namespace {

// Re-stamps the id and epoch of an encoded request or response.
void patch_id_epoch(std::vector<std::byte>& payload, std::uint64_t id,
                    std::uint32_t epoch) {
  if (payload.size() < core::kEpochOffset + 4) return;
  core::write_request_id(payload, id);
  const std::uint32_t epoch_be = host_to_net32(epoch);
  std::memcpy(payload.data() + core::kEpochOffset, &epoch_be, sizeof(epoch_be));
}

// A cache hit `age` epochs old is exactly `age` epochs staler than the
// upstream answer claimed; the degraded flag rides along so the operator's
// existing staleness handling sees it.
void add_staleness(std::vector<std::byte>& payload, std::uint64_t age) {
  if (age == 0 || payload.size() < core::kResponseHeaderBytes) return;
  payload[core::kFlagsOffset] |= std::byte{core::kResponseDegraded};
  std::uint16_t be = 0;
  std::memcpy(&be, payload.data() + core::kStaleEpochsOffset, sizeof(be));
  const std::uint32_t sum = net_to_host16(be) + std::min<std::uint64_t>(age, 0xFFFF);
  const std::uint16_t stale =
      sum > 0xFFFF ? 0xFFFF : static_cast<std::uint16_t>(sum);
  be = host_to_net16(stale);
  std::memcpy(payload.data() + core::kStaleEpochsOffset, &be, sizeof(be));
}

}  // namespace

// --- GatewaySession ---------------------------------------------------------

bool GatewaySession::dispatch(core::ReadRequest read) {
  return gateway_->session_submit(*this, std::move(read));
}

std::uint32_t GatewaySession::request_epoch() const {
  return static_cast<std::uint32_t>(gateway_->gateway_epoch());
}

std::uint64_t GatewaySession::subscribe(core::SubscribeRequest request) {
  QueryGateway::Origin subscriber;
  subscriber.kind = QueryGateway::Origin::Kind::kSession;
  subscriber.session = index_;
  (void)file(gateway_->do_subscribe(request, subscriber));
  return request.request_id;
}

void GatewaySession::deliver(std::span<const std::byte> payload) {
  if (!accept(payload)) return;
  if (pending_ > 0) --pending_;
  ++answered_;
}

// --- QueryGateway -----------------------------------------------------------

QueryGateway::QueryGateway(QueryGatewayConfig config,
                           const core::ReportCrafter& crafter,
                           core::IpResolver resolver)
    : config_(std::move(config)),
      crafter_(&crafter),
      resolver_(std::move(resolver)),
      cache_(config_.cache_capacity),
      hist_kv_(0.0, config_.latency_hist_max_ns, config_.latency_hist_buckets),
      hist_primitive_(0.0, config_.latency_hist_max_ns,
                      config_.latency_hist_buckets),
      hist_sketch_(0.0, config_.latency_hist_max_ns,
                   config_.latency_hist_buckets) {
  for (std::uint32_t c = 0; c < config_.virtual_ips.size(); ++c) {
    vip_index_.emplace(config_.virtual_ips[c].value, c);
  }
}

GatewaySession& QueryGateway::open_session() {
  sessions_.push_back(
      std::unique_ptr<GatewaySession>(new GatewaySession(this, sessions_.size())));
  return *sessions_.back();
}

std::uint32_t QueryGateway::apply_retarget(std::uint32_t collector) const {
  if (const auto it = retargets_.find(collector); it != retargets_.end()) {
    return it->second;
  }
  return collector;
}

std::uint32_t QueryGateway::route_key(std::span<const std::byte> key) const {
  // Ring deployments route by live consistent-hash membership (dead members
  // already excluded); modulo deployments patch deaths via the retarget map.
  const std::uint32_t collector =
      selector_ != nullptr
          ? selector_->owner_of(key)
          : crafter_->collector_of(
                key, static_cast<std::uint32_t>(config_.service_ips.size()));
  return apply_retarget(collector);
}

std::uint32_t QueryGateway::route(const core::ReadRequest& read) const {
  return read.collector ? apply_retarget(*read.collector) : route_key(read.key);
}

QueryGateway::Family QueryGateway::family_of(core::FrameKind kind) {
  switch (kind) {
    case core::FrameKind::kPrimitiveRequest:
    case core::FrameKind::kPrimitiveResponse:
      return Family::kPrimitive;
    case core::FrameKind::kSketchRequest:
    case core::FrameKind::kSketchResponse:
      return Family::kSketch;
    default:
      return Family::kKv;
  }
}

obs::Histogram& QueryGateway::hist_of(Family family) {
  switch (family) {
    case Family::kPrimitive: return hist_primitive_;
    case Family::kSketch: return hist_sketch_;
    case Family::kKv: break;
  }
  return hist_kv_;
}

void QueryGateway::record_latency(Family family, double ns) {
  hist_of(family).record(ns);
  obs::Histogram* mirror = family == Family::kKv          ? reg_hist_kv_
                           : family == Family::kPrimitive ? reg_hist_primitive_
                                                          : reg_hist_sketch_;
  if (mirror != nullptr) mirror->record(ns);
}

bool QueryGateway::session_submit(GatewaySession& session,
                                  core::ReadRequest read) {
  Origin origin;
  origin.kind = Origin::Kind::kSession;
  origin.session = session.index();
  origin.downstream_id = core::read_request_id(read.payload);
  origin.epoch = static_cast<std::uint32_t>(epoch_);
  const std::uint32_t collector = route(read);
  ++session.issued_;
  ++session.pending_;
  if (submit(std::move(read), collector, origin)) return true;
  --session.issued_;
  --session.pending_;
  return false;
}

core::SubscribeAck QueryGateway::do_subscribe(
    const core::SubscribeRequest& request, Origin subscriber) {
  core::SubscribeAck ack;
  ack.op = request.op;
  ack.request_id = request.request_id;
  ack.epoch = request.epoch;
  if (request.op == core::SubscribeOp::kUnsubscribe) {
    if (standing_.erase(request.subscription_id) > 0) {
      ack.subscription_id = request.subscription_id;
    } else {
      ack.flags |= core::kResponseSubscribeRejected;
      ++subscribes_rejected_;
    }
    return ack;
  }
  const auto sub_id = register_standing(request, subscriber);
  if (sub_id) {
    ack.subscription_id = *sub_id;
    ++subscribes_accepted_;
  } else {
    ack.flags |= core::kResponseSubscribeRejected;
    ++subscribes_rejected_;
  }
  return ack;
}

std::optional<std::uint64_t> QueryGateway::register_standing(
    const core::SubscribeRequest& request, Origin subscriber) {
  Standing st;
  st.kind = request.kind;
  st.subscriber = subscriber;
  st.key = request.key;
  st.threshold = request.threshold;
  st.k = request.k;
  st.collector = request.collector;
  switch (request.kind) {
    case core::StandingKind::kKeyChange:
    case core::StandingKind::kCounterThreshold:
      if (request.key.empty()) return std::nullopt;
      break;
    case core::StandingKind::kTopKDelta:
      if (!request.key.empty() || request.k == 0 ||
          request.collector >= config_.service_ips.size()) {
        return std::nullopt;
      }
      break;
    default:
      return std::nullopt;
  }
  const std::uint64_t sub_id = next_sub_id_++;
  standing_.emplace(sub_id, std::move(st));
  return sub_id;
}

bool QueryGateway::submit(core::ReadRequest read, std::uint32_t collector,
                          Origin origin) {
  ++requests_;
  if (collector >= config_.service_ips.size()) {
    ++unroutable_;
    return false;
  }
  const Family family = family_of(read.kind);
  // A drain is a consuming read: never cached, never coalesced — two
  // operators draining the same ring must each get their own entries.
  const bool cacheable =
      !(family == Family::kPrimitive &&
        read.op == static_cast<std::uint8_t>(core::PrimitiveOp::kDrainRing));
  CacheKey ck;
  ck.collector = collector;
  ck.family = static_cast<std::uint8_t>(family);
  ck.op = read.op;
  ck.k = read.k;
  ck.key.assign(read.key.begin(), read.key.end());

  if (cacheable) {
    if (auto hit = cache_.get(ck, epoch_, config_.cache_max_age_epochs)) {
      // Served locally: zero collector CPU, ~zero latency. Recording the hit
      // as 0 ns keeps the SLO histograms honest about what operators see.
      record_latency(family, 0.0);
      deliver(origin, hit->payload, hit->age_epochs);
      return true;
    }
    if (const auto it = coalesce_.find(ck); it != coalesce_.end()) {
      upstream_.find(it->second)->extra.waiters.push_back(origin);
      ++coalesced_;
      return true;
    }
  }

  const std::uint64_t logical = next_upstream_id_++;
  patch_id_epoch(read.payload, logical, static_cast<std::uint32_t>(epoch_));
  Upstream up{collector, family, read.op, {origin},
              sim_ != nullptr ? sim_->now_ns() : 0, cacheable, ck};
  const auto& rec = upstream_.book(logical, std::move(read.payload),
                                   config_.max_retries, std::move(up));
  if (cacheable) coalesce_.emplace(std::move(ck), logical);
  inflight_highwater_ = std::max(inflight_highwater_, upstream_.size());
  send_upstream(rec);
  arm_deadline(logical, logical);
  return true;
}

void QueryGateway::send_upstream(const UpstreamTable::Entry& rec) {
  // Counts every upstream frame, retries included — the saturation signal
  // operators alert on (upstream_sent - upstream_retries = logical reads).
  ++upstream_sent_;
  // A dead service does not resolve: the deadline machinery takes over.
  send(config_.gateway_ip, config_.service_ips[rec.extra.collector],
       rec.payload);
}

void QueryGateway::send(net::Ipv4Addr from, net::Ipv4Addr to,
                        std::span<const std::byte> payload) {
  (void)core::send_query_frame(sim_, self_, resolver_, from, to, payload);
}

void QueryGateway::arm_deadline(std::uint64_t logical_id,
                                std::uint64_t wire_id) {
  if (config_.request_timeout_ns == 0 || sim_ == nullptr) return;
  sim_->schedule(sim_->now_ns() + config_.request_timeout_ns,
                 [this, logical_id, wire_id] { on_deadline(logical_id, wire_id); });
}

void QueryGateway::on_deadline(std::uint64_t logical_id,
                               std::uint64_t wire_id) {
  auto* rec = upstream_.expired(logical_id, wire_id);
  if (rec == nullptr) return;
  if (rec->retries_left > 0) {
    ++upstream_retries_;
    upstream_.restamp(logical_id, *rec, next_upstream_id_++);
    send_upstream(*rec);
    arm_deadline(logical_id, rec->newest_wire_id);
    return;
  }
  // Retries exhausted: every waiter gets a synthesized answer flagged
  // degraded + gateway-timeout, so downstream requests never park forever.
  // Standing reads are simply skipped — the predicate re-evaluates next tick.
  const Upstream dead = upstream_.retire(logical_id).extra;
  if (dead.cacheable) coalesce_.erase(dead.cache_key);
  ++upstream_timeouts_;
  const double waited_ns =
      sim_ != nullptr
          ? static_cast<double>(sim_->now_ns() - dead.first_enqueued_ns)
          : 0.0;
  record_latency(dead.family, waited_ns);
  const auto payload = synthesize_timeout(dead);
  for (const Origin& origin : dead.waiters) {
    if (origin.kind == Origin::Kind::kStanding) continue;
    deliver(origin, payload, 0);
  }
}

std::vector<std::byte> QueryGateway::synthesize_timeout(
    const Upstream& rec) const {
  const std::uint8_t flags =
      core::kResponseDegraded | core::kResponseGatewayTimeout;
  switch (rec.family) {
    case Family::kPrimitive: {
      core::PrimitiveResponse resp;
      resp.op = static_cast<core::PrimitiveOp>(rec.op);
      resp.flags = flags;
      return core::encode_primitive_response(resp);
    }
    case Family::kSketch: {
      core::SketchResponse resp;
      resp.op = static_cast<core::SketchOp>(rec.op);
      resp.flags = flags;
      return core::encode_sketch_response(resp);
    }
    case Family::kKv: break;
  }
  core::QueryResponse resp;
  resp.flags = flags;
  return core::encode_query_response(resp);
}

void QueryGateway::receive(net::Packet packet, std::uint64_t now_ns) {
  const auto frame = net::parse_udp_frame(packet.bytes());
  if (!frame) {
    ++malformed_;
    return;
  }
  if (frame->udp.dst_port != core::kDartQueryUdpPort) {
    ++not_for_me_;
    return;
  }
  const bool to_gateway = frame->ip.dst == config_.gateway_ip;
  const auto vip = vip_index_.find(frame->ip.dst.value);
  if (!to_gateway && vip == vip_index_.end()) {
    ++not_for_me_;
    return;
  }
  std::optional<std::uint32_t> vip_collector;
  if (!to_gateway) vip_collector = vip->second;
  switch (const auto kind = core::frame_kind(frame->payload)) {
    case core::FrameKind::kQueryRequest:
    case core::FrameKind::kPrimitiveRequest:
    case core::FrameKind::kSketchRequest:
      handle_wire_request(*frame, kind, vip_collector);
      return;
    case core::FrameKind::kSubscribeRequest:
      handle_subscribe(*frame);
      return;
    case core::FrameKind::kQueryResponse:
    case core::FrameKind::kPrimitiveResponse:
    case core::FrameKind::kSketchResponse:
      handle_upstream_response(kind, frame->payload, now_ns);
      return;
    default:
      ++malformed_;
      return;
  }
}

void QueryGateway::handle_wire_request(
    const net::ParsedUdpFrame& frame, core::FrameKind kind,
    std::optional<std::uint32_t> vip_collector) {
  // The parsed request is only needed for validation, routing and cache
  // identity; the FORWARDED payload is the client's own bytes, re-stamped.
  core::ReadRequest read;
  read.kind = kind;
  std::vector<std::byte> key;
  std::optional<std::uint32_t> epoch;  // set once the request parses
  bool addressed = false;  // drain-ring and top-k name their collector
  switch (kind) {
    case core::FrameKind::kQueryRequest:
      if (auto r = core::parse_query_request(frame.payload)) {
        read.op = static_cast<std::uint8_t>(r->policy);
        epoch = r->epoch;
        key = std::move(r->key);
      }
      break;
    case core::FrameKind::kPrimitiveRequest:
      if (auto r = core::parse_primitive_request(frame.payload)) {
        read.op = static_cast<std::uint8_t>(r->op);
        addressed = r->op == core::PrimitiveOp::kDrainRing;
        epoch = r->epoch;
        key = std::move(r->key);
      }
      break;
    default:  // kSketchRequest: receive() routes only the three read kinds
      if (auto r = core::parse_sketch_request(frame.payload)) {
        read.op = static_cast<std::uint8_t>(r->op);
        read.k = r->k;
        addressed = r->op == core::SketchOp::kTopK;
        epoch = r->epoch;
        key = std::move(r->key);
      }
      break;
  }
  if (!epoch) {
    ++malformed_;
    return;
  }
  if (addressed && !vip_collector) {
    // It names its collector by ADDRESS (the virtual IP); at the gateway's
    // own IP there is nothing to route it by.
    ++unroutable_;
    return;
  }
  Origin origin;
  origin.kind = Origin::Kind::kWire;
  origin.client_ip = frame.ip.src;
  origin.reply_from = frame.ip.dst;
  origin.downstream_id = core::read_request_id(frame.payload);
  origin.epoch = *epoch;
  read.key = key;
  read.payload.assign(frame.payload.begin(), frame.payload.end());
  const std::uint32_t collector =
      vip_collector ? apply_retarget(*vip_collector) : route_key(key);
  (void)submit(std::move(read), collector, origin);
}

void QueryGateway::handle_subscribe(const net::ParsedUdpFrame& frame) {
  auto request = core::parse_subscribe_request(frame.payload);
  if (!request) {
    ++malformed_;
    return;
  }
  Origin subscriber;
  subscriber.kind = Origin::Kind::kWire;
  subscriber.client_ip = frame.ip.src;
  subscriber.reply_from = frame.ip.dst;
  const core::SubscribeAck ack = do_subscribe(*request, subscriber);
  send(frame.ip.dst, frame.ip.src, core::encode_subscribe_ack(ack));
}

void QueryGateway::handle_upstream_response(core::FrameKind kind,
                                            std::span<const std::byte> payload,
                                            std::uint64_t now_ns) {
  const auto logical = upstream_.logical_of(core::read_request_id(payload));
  if (!logical || upstream_.find(*logical)->extra.family != family_of(kind)) {
    // Duplicate, replay, or an answer that outlived its timeout synthesis.
    ++upstream_unexpected_;
    return;
  }
  // An answer retires its read only once it parses. UDP/4800 frames carry no
  // checksum, so damaged bytes can still match an id; caching or fanning
  // them out would hand every waiter an answer it cannot read. The read
  // stays in flight and its deadline asks again.
  if (!core::parse_answer(payload)) {
    ++malformed_;
    return;
  }
  const Upstream rec = upstream_.retire(*logical).extra;
  if (rec.cacheable) coalesce_.erase(rec.cache_key);

  record_latency(rec.family,
                 static_cast<double>(now_ns - rec.first_enqueued_ns));
  // Only clean answers are worth replaying: degraded / unavailable /
  // timed-out responses must be re-asked, not amplified by the cache.
  if (rec.cacheable && payload[core::kFlagsOffset] == std::byte{0}) {
    cache_.put(rec.cache_key,
               std::vector<std::byte>(payload.begin(), payload.end()), epoch_);
  }
  for (const Origin& origin : rec.waiters) deliver(origin, payload, 0);
}

void QueryGateway::deliver(const Origin& origin,
                           std::span<const std::byte> payload,
                           std::uint64_t age_epochs) {
  if (origin.kind == Origin::Kind::kStanding) {
    evaluate_standing(origin.sub_id, payload);
    return;
  }
  std::vector<std::byte> copy(payload.begin(), payload.end());
  patch_id_epoch(copy, origin.downstream_id, origin.epoch);
  add_staleness(copy, age_epochs);
  if (origin.kind == Origin::Kind::kSession) {
    if (origin.session < sessions_.size()) {
      sessions_[origin.session]->deliver(copy);
    }
    return;
  }
  send(origin.reply_from, origin.client_ip, copy);
}

void QueryGateway::on_epoch(std::uint64_t epoch) {
  epoch_ = epoch;
  const auto stamp = static_cast<std::uint32_t>(epoch_);
  // Evaluate every standing predicate through the SAME submit pipeline
  // operators use: standing reads coalesce with operator reads and with each
  // other, so a thousand subscriptions on one hot key cost one upstream read.
  for (auto& [sub_id, st] : standing_) {
    Origin origin;
    origin.kind = Origin::Kind::kStanding;
    origin.sub_id = sub_id;
    core::ReadRequest read;
    switch (st.kind) {
      case core::StandingKind::kKeyChange:
        read = core::kv_read(0, stamp, st.key, core::ReturnPolicy::kPlurality);
        break;
      case core::StandingKind::kCounterThreshold:
        read = core::primitive_read(0, stamp, core::PrimitiveOp::kReadCounter,
                                    st.key);
        break;
      case core::StandingKind::kTopKDelta:
        read = core::sketch_read(0, stamp, core::SketchOp::kTopK, {},
                                 st.collector, st.k);
        break;
    }
    const std::uint32_t collector = route(read);
    (void)submit(std::move(read), collector, origin);
  }
}

void QueryGateway::evaluate_standing(std::uint64_t sub_id,
                                     std::span<const std::byte> payload) {
  const auto it = standing_.find(sub_id);
  if (it == standing_.end()) return;  // unsubscribed while the read flew
  Standing& st = it->second;
  const auto answer = core::parse_answer(payload);
  if (!answer) return;
  switch (st.kind) {
    case core::StandingKind::kKeyChange: {
      const auto* resp = std::get_if<core::QueryResponse>(&*answer);
      if (resp == nullptr) return;
      const bool changed = !st.has_last || resp->outcome != st.last_outcome ||
                           resp->value != st.last_value;
      if (changed) {
        core::StandingNotification note;
        note.kind = st.kind;
        note.value = resp->outcome == core::QueryOutcome::kFound ? 1 : 0;
        note.key = st.key;
        note.aux = resp->value;
        note.flags = resp->flags & core::kResponseDegraded;
        push_notification(sub_id, st, std::move(note));
      }
      st.has_last = true;
      st.last_outcome = resp->outcome;
      st.last_value = resp->value;
      return;
    }
    case core::StandingKind::kCounterThreshold: {
      const auto* resp = std::get_if<core::PrimitiveResponse>(&*answer);
      if (resp == nullptr || resp->op != core::PrimitiveOp::kReadCounter) {
        return;
      }
      if (resp->counter_value >= st.threshold) {
        if (st.armed) {
          st.armed = false;
          core::StandingNotification note;
          note.kind = st.kind;
          note.value = resp->counter_value;
          note.key = st.key;
          note.flags = resp->flags & core::kResponseDegraded;
          push_notification(sub_id, st, std::move(note));
        }
      } else {
        st.armed = true;  // dropped below: re-arm for the next crossing
      }
      return;
    }
    case core::StandingKind::kTopKDelta: {
      const auto* resp = std::get_if<core::SketchResponse>(&*answer);
      if (resp == nullptr || resp->op != core::SketchOp::kTopK) return;
      std::set<std::vector<std::byte>> members;
      for (const core::HeavyHitterWire& hh : resp->hitters) {
        members.insert(hh.key);
        if (!st.members.contains(hh.key)) {
          core::StandingNotification note;
          note.kind = st.kind;
          note.value = hh.count;
          note.key = hh.key;
          note.flags = resp->flags & core::kResponseDegraded;
          push_notification(sub_id, st, std::move(note));
        }
      }
      st.members = std::move(members);
      return;
    }
  }
}

void QueryGateway::push_notification(std::uint64_t sub_id, Standing& st,
                                     core::StandingNotification note) {
  note.subscription_id = sub_id;
  note.seq = ++st.seq;
  note.gateway_epoch = epoch_;
  ++notifications_sent_;
  const Origin& to = st.subscriber;
  if (to.kind == Origin::Kind::kSession) {
    if (to.session < sessions_.size()) {
      (void)sessions_[to.session]->file(std::move(note));
    }
    return;
  }
  send(to.reply_from, to.client_ip, core::encode_notification(note));
}

void QueryGateway::bind_metrics(obs::MetricRegistry& registry,
                                const std::string& prefix) {
  registry.counter_fn(prefix + "_gateway_requests_total",
                      [this] { return requests_; },
                      "downstream requests accepted (wire + session)");
  registry.counter_fn(prefix + "_gateway_cache_hits_total",
                      [this] { return cache_.hits(); },
                      "reads served from the result cache");
  registry.counter_fn(prefix + "_gateway_cache_misses_total",
                      [this] { return cache_.misses(); },
                      "cacheable reads that went upstream");
  registry.counter_fn(prefix + "_gateway_cache_inserts_total",
                      [this] { return cache_.inserts(); },
                      "clean upstream answers cached");
  registry.counter_fn(prefix + "_gateway_cache_evictions_total",
                      [this] { return cache_.evictions(); },
                      "entries dropped by LRU capacity or epoch expiry");
  registry.counter_fn(prefix + "_gateway_coalesced_total",
                      [this] { return coalesced_; },
                      "requests coalesced onto an in-flight upstream read");
  registry.counter_fn(prefix + "_gateway_upstream_sent_total",
                      [this] { return upstream_sent_; },
                      "upstream reads issued to collector services");
  registry.counter_fn(prefix + "_gateway_upstream_retries_total",
                      [this] { return upstream_retries_; },
                      "upstream resends under fresh wire ids");
  registry.counter_fn(prefix + "_gateway_upstream_timeouts_total",
                      [this] { return upstream_timeouts_; },
                      "upstream reads failed after exhausting retries");
  registry.counter_fn(prefix + "_gateway_upstream_unexpected_total",
                      [this] { return upstream_unexpected_; },
                      "duplicate/replayed/unknown upstream responses");
  registry.counter_fn(prefix + "_gateway_notifications_total",
                      [this] { return notifications_sent_; },
                      "standing-query notifications pushed");
  registry.counter_fn(prefix + "_gateway_subscribes_total",
                      [this] { return subscribes_accepted_; },
                      "standing-query registrations accepted");
  registry.counter_fn(prefix + "_gateway_subscribes_rejected_total",
                      [this] { return subscribes_rejected_; },
                      "subscribe requests refused (bad predicate)");
  registry.counter_fn(prefix + "_gateway_malformed_total",
                      [this] { return malformed_; },
                      "unparsable frames, unknown magics or upstream "
                      "answers that do not parse");
  registry.counter_fn(prefix + "_gateway_not_for_me_total",
                      [this] { return not_for_me_; },
                      "well-formed frames addressed to another node");
  registry.counter_fn(prefix + "_gateway_unroutable_total",
                      [this] { return unroutable_; },
                      "requests with no routable collector");
  registry.gauge_fn(prefix + "_gateway_sessions",
                    [this] { return static_cast<double>(sessions_.size()); },
                    "open in-process operator sessions");
  registry.gauge_fn(prefix + "_gateway_inflight",
                    [this] { return static_cast<double>(upstream_.size()); },
                    "upstream reads currently in flight");
  registry.gauge_fn(prefix + "_gateway_inflight_highwater",
                    [this] { return static_cast<double>(inflight_highwater_); },
                    "high-water mark of in-flight upstream reads");
  registry.gauge_fn(prefix + "_gateway_standing",
                    [this] { return static_cast<double>(standing_.size()); },
                    "registered standing queries");
  reg_hist_kv_ = &registry.histogram(
      prefix + "_gateway_latency_kv_ns", 0.0, config_.latency_hist_max_ns,
      config_.latency_hist_buckets, "KV query latency through the gateway (ns)");
  reg_hist_primitive_ = &registry.histogram(
      prefix + "_gateway_latency_primitive_ns", 0.0,
      config_.latency_hist_max_ns, config_.latency_hist_buckets,
      "primitive query latency through the gateway (ns)");
  reg_hist_sketch_ = &registry.histogram(
      prefix + "_gateway_latency_sketch_ns", 0.0, config_.latency_hist_max_ns,
      config_.latency_hist_buckets,
      "sketch query latency through the gateway (ns)");
}

}  // namespace dart::query
