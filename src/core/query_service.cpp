#include "core/query_service.hpp"

#include <algorithm>

#include "common/cycles.hpp"

namespace dart::core {

bool send_query_frame(net::Simulator* sim, net::NodeId self,
                      const IpResolver& resolver, net::Ipv4Addr from,
                      net::Ipv4Addr to, std::span<const std::byte> payload) {
  if (sim == nullptr) return false;
  const auto dest = resolver(to);
  if (!dest) return false;
  net::UdpFrameSpec spec;
  spec.src_ip = from;
  spec.dst_ip = to;
  spec.src_port = kDartQueryUdpPort;
  spec.dst_port = kDartQueryUdpPort;
  sim->send(self, *dest, net::Packet(net::build_udp_frame(spec, payload)));
  return true;
}

void QueryServiceNode::receive(net::Packet packet, std::uint64_t /*now_ns*/) {
  const auto frame = net::parse_udp_frame(packet.bytes());
  if (!frame) {
    ++malformed_;
    return;
  }
  // Well-formed but addressed elsewhere: routing noise, not a protocol
  // error. Conflating the two would make `malformed` un-alertable.
  if (frame->udp.dst_port != kDartQueryUdpPort || frame->ip.dst != ip_) {
    ++not_for_me_;
    return;
  }
  // A dead collector's service answers nothing: the request stays pending
  // at the operator until liveness detection re-targets it to a backup.
  if (!online_) {
    ++dropped_offline_;
    return;
  }
  // Shared port: the magic selects the family before its parser commits.
  std::optional<std::vector<std::byte>> reply;
  switch (frame_kind(frame->payload)) {
    case FrameKind::kQueryRequest:
      if (const auto request = parse_query_request(frame->payload)) {
        reply = serve_query(*request);
      }
      break;
    case FrameKind::kPrimitiveRequest:
      if (const auto request = parse_primitive_request(frame->payload)) {
        reply = serve_primitive(*request);
      }
      break;
    case FrameKind::kSketchRequest:
      if (const auto request = parse_sketch_request(frame->payload)) {
        reply = serve_sketch(*request);
      }
      break;
    default:
      break;
  }
  if (!reply) {
    ++malformed_;
    return;
  }
  (void)send_query_frame(sim_, self_, resolver_, ip_, frame->ip.src, *reply);
}

std::vector<std::byte> QueryServiceNode::serve_query(
    const QueryRequest& request) {
  // The collector CPU's actual work: N slot reads + checksum filter + vote.
  // Sampled latency: time one in every `resolve_sample_every_` resolves.
  const bool sample =
      resolve_hist_ != nullptr && (served_ % resolve_sample_every_) == 0;
  const std::uint64_t t0 = sample ? rdtsc() : 0;
  const auto result = collector_->query(request.key, request.policy);
  if (sample) {
    const double ns =
        static_cast<double>(rdtsc() - t0) / tsc_ghz();
    resolve_hist_->record(ns);
    ++resolve_samples_;
  }
  ++served_;

  auto response = make_response(request.request_id, result);
  // v2: echo the request's epoch so the client can compute staleness even
  // for out-of-order responses.
  response.epoch = request.epoch;
  // Degraded marking: answering for a dead peer's keys, or our own store is
  // known lossy. An explicit flag beats silently returning garbage.
  apply_degradation(request.key, response.flags, response.stale_epochs);
  if (response.degraded()) ++degraded_;
  return encode_query_response(response);
}

void QueryServiceNode::apply_degradation(std::span<const std::byte> key,
                                         std::uint8_t& flags,
                                         std::uint16_t& stale) const {
  std::uint16_t worst = self_stale_epochs_;
  bool degraded = self_stale_epochs_ > 0;
  const bool can_hash_owner =
      selector_ != nullptr ||
      (crafter_for_owner_ != nullptr && n_collectors_ > 0);
  if (!key.empty() && can_hash_owner) {
    // The data lost with a death belongs to the key's HOME owner — under a
    // ring the live owner of a moved key is a healthy survivor, so marking
    // must use the bring-up mapping, not the post-rebuild one.
    const std::uint32_t owner =
        selector_ != nullptr
            ? selector_->home_owner_of(key)
            : crafter_for_owner_->collector_of(key, n_collectors_);
    if (const auto it = takeovers_.find(owner); it != takeovers_.end()) {
      degraded = true;
      worst = std::max(worst, it->second);
    }
  }
  if (degraded) {
    flags |= kResponseDegraded;
    stale = worst;
  }
}

std::vector<std::byte> QueryServiceNode::serve_primitive(
    const PrimitiveRequest& request) {
  PrimitiveResponse response;
  response.op = request.op;
  response.request_id = request.request_id;
  response.epoch = request.epoch;

  if (!collector_->primitives_enabled()) {
    // The op was understood; this collector just has no primitive regions.
    // Answering (rather than dropping) lets the operator distinguish
    // "unavailable" from "dead" without a timeout.
    response.flags |= kResponsePrimitiveUnavailable;
    ++served_;
    ++primitives_served_;
    ++primitives_unavailable_;
    return encode_primitive_response(response);
  }

  // Drain has no key, so only local degradation applies; the keyed ops share
  // the KV path's owner-takeover marking.
  apply_degradation(request.key, response.flags, response.stale_epochs);

  switch (request.op) {
    case PrimitiveOp::kDrainRing: {
      AppendRing& ring = collector_->ring();
      auto drained = ring.drain(request.max_entries == 0
                                    ? SIZE_MAX
                                    : static_cast<std::size_t>(
                                          std::min<std::uint64_t>(
                                              request.max_entries, SIZE_MAX)));
      response.missed = drained.missed;
      response.next_seq = drained.next_seq;
      response.entry_value_bytes =
          static_cast<std::uint16_t>(ring.config().value_bytes);
      response.entries.reserve(drained.entries.size());
      for (auto& entry : drained.entries) {
        response.entries.push_back(
            RingEntryWire{entry.seq, std::move(entry.value)});
      }
      break;
    }
    case PrimitiveOp::kReadCounter: {
      const CellSheet& cells = collector_->counters();
      response.cell_index = cells.geometry().cell_of(request.key, 0);
      response.counter_value = cells.read_cell(response.cell_index);
      break;
    }
    case PrimitiveOp::kReadPostcardGroup: {
      const PostcardStore& store = collector_->postcards();
      auto view = store.read_group(request.key);
      response.group_index = view.group;
      response.valid_mask = view.valid_mask;
      response.max_hops = static_cast<std::uint8_t>(store.config().max_hops);
      response.hop_value_bytes =
          static_cast<std::uint16_t>(store.config().value_bytes);
      response.hops = std::move(view.hops);
      break;
    }
  }
  if (response.degraded()) ++degraded_;
  ++served_;
  ++primitives_served_;
  return encode_primitive_response(response);
}

std::vector<std::byte> QueryServiceNode::serve_sketch(
    const SketchRequest& request) {
  SketchResponse response;
  response.op = request.op;
  response.request_id = request.request_id;
  response.epoch = request.epoch;

  if (collector_->backend_kind() != StoreBackendKind::kSketch) {
    // Same shape as the primitive-unavailable answer: the op was understood,
    // this collector just isn't sketch-backed. Answering (rather than
    // dropping) lets the operator tell "wrong backend" from "dead".
    response.flags |= kResponseSketchUnavailable;
    ++served_;
    ++sketch_served_;
    ++sketch_unavailable_;
    return encode_sketch_response(response);
  }

  // Estimate is keyed (owner-takeover marking applies); top-k reads the
  // whole tracker, so only local degradation does.
  apply_degradation(request.key, response.flags, response.stale_epochs);

  SketchBackend& sketch = collector_->sketch();
  switch (request.op) {
    case SketchOp::kEstimate:
      response.estimate = sketch.estimate(request.key);
      // Queried keys are the tracker's candidate stream: the operator's own
      // read traffic maintains the heavy-hitter set, keeping ingest
      // zero-CPU.
      sketch.offer(request.key);
      break;
    case SketchOp::kTopK: {
      const auto hitters = sketch.top_k(request.k);
      response.hitters.reserve(hitters.size());
      for (const HeavyHitter& hh : hitters) {
        response.hitters.push_back(HeavyHitterWire{hh.count, hh.key});
      }
      break;
    }
  }
  if (response.degraded()) ++degraded_;
  ++served_;
  ++sketch_served_;
  return encode_sketch_response(response);
}

void QueryServiceNode::bind_metrics(obs::MetricRegistry& registry,
                                    const std::string& prefix) {
  registry.counter_fn(prefix + "_query_served_total",
                      [this] { return served_; },
                      "query requests resolved and answered");
  registry.counter_fn(prefix + "_query_malformed_total",
                      [this] { return malformed_; },
                      "unparsable frames or bad DQ payloads");
  registry.counter_fn(prefix + "_query_not_for_me_total",
                      [this] { return not_for_me_; },
                      "well-formed frames addressed to another node");
  registry.counter_fn(prefix + "_query_degraded_total",
                      [this] { return degraded_; },
                      "responses served with the degraded flag");
  registry.counter_fn(prefix + "_query_dropped_offline_total",
                      [this] { return dropped_offline_; },
                      "requests eaten while the collector was offline");
  registry.counter_fn(prefix + "_query_primitives_served_total",
                      [this] { return primitives_served_; },
                      "DTA primitive requests answered");
  registry.counter_fn(prefix + "_query_primitives_unavailable_total",
                      [this] { return primitives_unavailable_; },
                      "primitive requests answered 'regions not enabled'");
  registry.counter_fn(prefix + "_query_sketch_served_total",
                      [this] { return sketch_served_; },
                      "sketch requests answered");
  registry.counter_fn(prefix + "_query_sketch_unavailable_total",
                      [this] { return sketch_unavailable_; },
                      "sketch requests answered 'backend not a sketch'");
  // Linear buckets 0..50us cover the N-slot read + vote for every store
  // size the tests use; outliers clamp to the top bucket.
  resolve_hist_ = &registry.histogram(
      prefix + "_query_resolve_ns", 0.0, 50'000.0, 50,
      "sampled DartStore resolve latency (ns)");
}

std::uint32_t OperatorClient::route_of(std::span<const std::byte> key) const {
  // Fig. 2, steps 1-2: hash the key to its collector, look up the address.
  // Ring deployments consult the live consistent-hash membership, which
  // already excludes dead members; modulo deployments reduce over the full
  // service list and patch deaths with the retarget map below.
  std::uint32_t collector =
      selector_ != nullptr
          ? selector_->owner_of(key)
          : crafter_->collector_of(
                key, static_cast<std::uint32_t>(service_ips_.size()));
  // Failover redirect: keys owned by a dead collector resolve to its backup
  // (the directory row liveness re-pointed; see docs/FAULTS.md).
  if (const auto it = retargets_.find(collector); it != retargets_.end()) {
    collector = it->second;
  }
  return collector;
}

bool OperatorClient::dispatch(ReadRequest read) {
  const std::uint32_t collector =
      read.collector ? *read.collector : route_of(read.key);
  return collector < service_ips_.size() &&
         send_tracked(service_ips_[collector], std::move(read.payload));
}

std::uint64_t OperatorClient::subscribe(net::Ipv4Addr gateway_ip,
                                        SubscribeRequest request) {
  return send_tracked(gateway_ip, encode_subscribe_request(request))
             ? request.request_id
             : 0;
}

bool OperatorClient::send_to_ip(net::Ipv4Addr ip,
                                std::span<const std::byte> payload) {
  return send_query_frame(sim_, self_, resolver_, ip_, ip, payload);
}

bool OperatorClient::send_tracked(net::Ipv4Addr ip,
                                  std::vector<std::byte> payload) {
  if (!send_to_ip(ip, payload)) return false;
  const std::uint64_t id = read_request_id(payload);
  (void)inflight_.book(id, std::move(payload), max_retries_, ip);
  ++sent_;
  arm_deadline(id, id);
  return true;
}

std::optional<std::uint64_t> OperatorClient::settle(std::uint64_t wire_id) {
  const auto logical = inflight_.logical_of(wire_id);
  if (!logical) {
    ++unexpected_;
    return std::nullopt;
  }
  (void)inflight_.retire(*logical);
  ++received_;
  return logical;
}

void OperatorClient::arm_deadline(std::uint64_t logical_id,
                                  std::uint64_t wire_id) {
  if (timeout_ns_ == 0 || sim_ == nullptr) return;
  sim_->schedule(sim_->now_ns() + timeout_ns_, [this, logical_id, wire_id] {
    on_deadline(logical_id, wire_id);
  });
}

void OperatorClient::on_deadline(std::uint64_t logical_id,
                                 std::uint64_t wire_id) {
  auto* rec = inflight_.expired(logical_id, wire_id);
  if (rec == nullptr) return;
  if (rec->retries_left == 0) {
    // Exhausted: fail the request so a lost response cannot park its id (and
    // pending()) forever.
    (void)inflight_.retire(logical_id);
    timed_out_ids_.insert(logical_id);
    ++timeouts_;
    return;
  }
  ++retries_;
  // Resend under a FRESH wire id — a service that already served the lost
  // original must treat the retry as a new request, and the client must not
  // confuse the two answers.
  inflight_.restamp(logical_id, *rec, next_id());
  (void)send_to_ip(rec->extra, rec->payload);  // best effort; re-armed
  arm_deadline(logical_id, rec->newest_wire_id);
}

void OperatorClient::receive(net::Packet packet, std::uint64_t /*now_ns*/) {
  const auto frame = net::parse_udp_frame(packet.bytes());
  if (!frame || frame->udp.dst_port != kDartQueryUdpPort) return;
  if (frame->ip.dst != ip_) {
    // Addressed to another client; recording it as ours would hand this
    // operator someone else's answer.
    ++stray_;
    return;
  }
  (void)accept(frame->payload);
}

void OperatorClient::bind_metrics(obs::MetricRegistry& registry,
                                  const std::string& prefix) {
  registry.counter_fn(prefix + "_operator_queries_sent_total",
                      [this] { return sent_; }, "query requests sent");
  registry.counter_fn(prefix + "_operator_responses_received_total",
                      [this] { return received_; },
                      "first-copy responses accepted");
  registry.counter_fn(prefix + "_operator_responses_stray_total",
                      [this] { return stray_; },
                      "responses addressed to another client");
  registry.counter_fn(prefix + "_operator_responses_unexpected_total",
                      [this] { return unexpected_; },
                      "duplicate/replayed/unknown-id responses");
  registry.counter_fn(prefix + "_operator_responses_degraded_total",
                      [this] { return degraded_; },
                      "accepted responses flagged degraded");
  registry.counter_fn(prefix + "_operator_timeouts_total",
                      [this] { return timeouts_; },
                      "requests failed after exhausting retries");
  registry.counter_fn(prefix + "_operator_retries_total",
                      [this] { return retries_; },
                      "deadline-driven resends under fresh wire ids");
  registry.counter_fn(prefix + "_operator_notifications_total",
                      [this] { return notifications_received(); },
                      "standing-query notifications pushed to this client");
  registry.gauge_fn(prefix + "_operator_pending",
                    [this] { return static_cast<double>(pending()); },
                    "requests in flight");
}

}  // namespace dart::core
