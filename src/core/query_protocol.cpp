#include "core/query_protocol.hpp"

#include <algorithm>
#include <cstring>

#include "common/bytes.hpp"

namespace dart::core {

namespace {

constexpr std::uint16_t magic(FrameKind kind) {
  return static_cast<std::uint16_t>(kind);
}

bool valid_standing_kind(std::uint8_t kind) {
  return kind >= static_cast<std::uint8_t>(StandingKind::kKeyChange) &&
         kind <= static_cast<std::uint8_t>(StandingKind::kTopKDelta);
}

bool valid_primitive_op(std::uint8_t op) {
  return op >= static_cast<std::uint8_t>(PrimitiveOp::kDrainRing) &&
         op <= static_cast<std::uint8_t>(PrimitiveOp::kReadPostcardGroup);
}

bool valid_sketch_op(std::uint8_t op) {
  return op == static_cast<std::uint8_t>(SketchOp::kEstimate) ||
         op == static_cast<std::uint8_t>(SketchOp::kTopK);
}

}  // namespace

FrameKind frame_kind(std::span<const std::byte> payload) {
  BufReader r(payload);
  const auto kind = static_cast<FrameKind>(r.be16());
  if (!r.ok()) return FrameKind::kUnknown;
  switch (kind) {
    case FrameKind::kQueryRequest:
    case FrameKind::kQueryResponse:
    case FrameKind::kSketchRequest:
    case FrameKind::kSketchResponse:
    case FrameKind::kSubscribeRequest:
    case FrameKind::kSubscribeAck:
    case FrameKind::kNotification:
    case FrameKind::kPrimitiveRequest:
    case FrameKind::kPrimitiveResponse:
      return kind;
    case FrameKind::kUnknown:
      break;
  }
  return FrameKind::kUnknown;
}

std::uint64_t read_request_id(std::span<const std::byte> payload) {
  if (payload.size() < kRequestIdOffset + 8) return 0;
  std::uint64_t be = 0;
  std::memcpy(&be, payload.data() + kRequestIdOffset, sizeof(be));
  return net_to_host64(be);
}

void write_request_id(std::span<std::byte> payload, std::uint64_t id) {
  if (payload.size() < kRequestIdOffset + 8) return;
  const std::uint64_t be = host_to_net64(id);
  std::memcpy(payload.data() + kRequestIdOffset, &be, sizeof(be));
}

std::vector<std::byte> encode_query_request(const QueryRequest& req) {
  std::vector<std::byte> out;
  out.reserve(18 + req.key.size());
  BufWriter w(out);
  w.be16(magic(FrameKind::kQueryRequest));
  w.u8(kQueryProtocolVersion);
  w.u8(static_cast<std::uint8_t>(req.policy));
  w.be64(req.request_id);
  w.be32(req.epoch);
  w.be16(static_cast<std::uint16_t>(req.key.size()));
  w.bytes(req.key);
  return out;
}

std::optional<QueryRequest> parse_query_request(
    std::span<const std::byte> payload) {
  BufReader r(payload);
  if (r.be16() != magic(FrameKind::kQueryRequest)) return std::nullopt;
  if (r.u8() != kQueryProtocolVersion) return std::nullopt;
  QueryRequest req;
  const std::uint8_t policy = r.u8();
  if (policy > static_cast<std::uint8_t>(ReturnPolicy::kConsensusTwo)) {
    return std::nullopt;
  }
  req.policy = static_cast<ReturnPolicy>(policy);
  req.request_id = r.be64();
  req.epoch = r.be32();
  const std::uint16_t key_len = r.be16();
  const auto key = r.view(key_len);
  if (!r.ok() || key.size() != key_len || key_len == 0) return std::nullopt;
  req.key.assign(key.begin(), key.end());
  return req;
}

std::vector<std::byte> encode_query_response(const QueryResponse& resp) {
  std::vector<std::byte> out;
  out.reserve(23 + resp.value.size());
  BufWriter w(out);
  w.be16(magic(FrameKind::kQueryResponse));
  w.u8(kQueryProtocolVersion);
  w.u8(resp.outcome == QueryOutcome::kFound ? 1 : 0);
  w.be64(resp.request_id);
  w.be32(resp.epoch);
  w.u8(resp.flags);
  w.be16(resp.stale_epochs);
  w.u8(resp.checksum_matches);
  w.u8(resp.distinct_values);
  w.be16(static_cast<std::uint16_t>(resp.value.size()));
  w.bytes(resp.value);
  return out;
}

std::optional<QueryResponse> parse_query_response(
    std::span<const std::byte> payload) {
  BufReader r(payload);
  if (r.be16() != magic(FrameKind::kQueryResponse)) return std::nullopt;
  if (r.u8() != kQueryProtocolVersion) return std::nullopt;
  QueryResponse resp;
  resp.outcome = r.u8() != 0 ? QueryOutcome::kFound : QueryOutcome::kEmpty;
  resp.request_id = r.be64();
  resp.epoch = r.be32();
  resp.flags = r.u8();
  resp.stale_epochs = r.be16();
  resp.checksum_matches = r.u8();
  resp.distinct_values = r.u8();
  const std::uint16_t value_len = r.be16();
  const auto value = r.view(value_len);
  if (!r.ok() || value.size() != value_len) return std::nullopt;
  if (resp.outcome == QueryOutcome::kFound && value_len == 0) {
    return std::nullopt;
  }
  resp.value.assign(value.begin(), value.end());
  return resp;
}

std::vector<std::byte> encode_primitive_request(const PrimitiveRequest& req) {
  std::vector<std::byte> out;
  out.reserve(26 + req.key.size());
  BufWriter w(out);
  w.be16(magic(FrameKind::kPrimitiveRequest));
  w.u8(kPrimitiveProtocolVersion);
  w.u8(static_cast<std::uint8_t>(req.op));
  w.be64(req.request_id);
  w.be32(req.epoch);
  w.be64(req.max_entries);
  w.be16(static_cast<std::uint16_t>(req.key.size()));
  w.bytes(req.key);
  return out;
}

std::optional<PrimitiveRequest> parse_primitive_request(
    std::span<const std::byte> payload) {
  BufReader r(payload);
  if (r.be16() != magic(FrameKind::kPrimitiveRequest)) return std::nullopt;
  if (r.u8() != kPrimitiveProtocolVersion) return std::nullopt;
  const std::uint8_t op = r.u8();
  if (!valid_primitive_op(op)) return std::nullopt;
  PrimitiveRequest req;
  req.op = static_cast<PrimitiveOp>(op);
  req.request_id = r.be64();
  req.epoch = r.be32();
  req.max_entries = r.be64();
  const std::uint16_t key_len = r.be16();
  const auto key = r.view(key_len);
  if (!r.ok() || key.size() != key_len) return std::nullopt;
  // Drain addresses the whole ring (no key); the keyed ops need one.
  if (req.op == PrimitiveOp::kDrainRing ? key_len != 0 : key_len == 0) {
    return std::nullopt;
  }
  req.key.assign(key.begin(), key.end());
  return req;
}

std::vector<std::byte> encode_primitive_response(const PrimitiveResponse& resp) {
  std::vector<std::byte> out;
  BufWriter w(out);
  w.be16(magic(FrameKind::kPrimitiveResponse));
  w.u8(kPrimitiveProtocolVersion);
  w.u8(static_cast<std::uint8_t>(resp.op));
  w.be64(resp.request_id);
  w.be32(resp.epoch);
  w.u8(resp.flags);
  w.be16(resp.stale_epochs);
  switch (resp.op) {
    case PrimitiveOp::kDrainRing: {
      w.be64(resp.missed);
      w.be64(resp.next_seq);
      w.be16(resp.entry_value_bytes);
      w.be16(static_cast<std::uint16_t>(
          std::min<std::size_t>(resp.entries.size(), 0xFFFF)));
      std::size_t emitted = 0;
      for (const RingEntryWire& entry : resp.entries) {
        if (emitted++ == 0xFFFF) break;
        w.be64(entry.seq);
        w.bytes(entry.value);
      }
      break;
    }
    case PrimitiveOp::kReadCounter:
      w.be64(resp.cell_index);
      w.be64(resp.counter_value);
      break;
    case PrimitiveOp::kReadPostcardGroup: {
      w.be64(resp.group_index);
      w.u8(resp.max_hops);
      w.be32(resp.valid_mask);
      w.be16(resp.hop_value_bytes);
      for (const auto& hop : resp.hops) w.bytes(hop);
      break;
    }
  }
  return out;
}

std::optional<PrimitiveResponse> parse_primitive_response(
    std::span<const std::byte> payload) {
  BufReader r(payload);
  if (r.be16() != magic(FrameKind::kPrimitiveResponse)) return std::nullopt;
  if (r.u8() != kPrimitiveProtocolVersion) return std::nullopt;
  const std::uint8_t op = r.u8();
  if (!valid_primitive_op(op)) return std::nullopt;
  PrimitiveResponse resp;
  resp.op = static_cast<PrimitiveOp>(op);
  resp.request_id = r.be64();
  resp.epoch = r.be32();
  resp.flags = r.u8();
  resp.stale_epochs = r.be16();
  if (!r.ok()) return std::nullopt;
  switch (resp.op) {
    case PrimitiveOp::kDrainRing: {
      resp.missed = r.be64();
      resp.next_seq = r.be64();
      resp.entry_value_bytes = r.be16();
      const std::uint16_t count = r.be16();
      if (!r.ok()) return std::nullopt;
      resp.entries.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        RingEntryWire entry;
        entry.seq = r.be64();
        const auto value = r.view(resp.entry_value_bytes);
        if (!r.ok() || value.size() != resp.entry_value_bytes) {
          return std::nullopt;
        }
        entry.value.assign(value.begin(), value.end());
        resp.entries.push_back(std::move(entry));
      }
      break;
    }
    case PrimitiveOp::kReadCounter:
      resp.cell_index = r.be64();
      resp.counter_value = r.be64();
      if (!r.ok()) return std::nullopt;
      break;
    case PrimitiveOp::kReadPostcardGroup: {
      resp.group_index = r.be64();
      resp.max_hops = r.u8();
      resp.valid_mask = r.be32();
      resp.hop_value_bytes = r.be16();
      if (!r.ok() || resp.max_hops > 32) return std::nullopt;
      if (resp.max_hops < 32 && (resp.valid_mask >> resp.max_hops) != 0) {
        return std::nullopt;
      }
      resp.hops.reserve(resp.max_hops);
      for (std::uint8_t hop = 0; hop < resp.max_hops; ++hop) {
        const auto value = r.view(resp.hop_value_bytes);
        if (!r.ok() || value.size() != resp.hop_value_bytes) {
          return std::nullopt;
        }
        resp.hops.emplace_back(value.begin(), value.end());
      }
      break;
    }
  }
  // Trailing garbage after a structurally complete body is a framing error.
  if (r.remaining() != 0) return std::nullopt;
  return resp;
}

std::vector<std::byte> encode_sketch_request(const SketchRequest& req) {
  std::vector<std::byte> out;
  out.reserve(20 + req.key.size());
  BufWriter w(out);
  w.be16(magic(FrameKind::kSketchRequest));
  w.u8(kSketchProtocolVersion);
  w.u8(static_cast<std::uint8_t>(req.op));
  w.be64(req.request_id);
  w.be32(req.epoch);
  w.be16(req.k);
  w.be16(static_cast<std::uint16_t>(req.key.size()));
  w.bytes(req.key);
  return out;
}

std::optional<SketchRequest> parse_sketch_request(
    std::span<const std::byte> payload) {
  BufReader r(payload);
  if (r.be16() != magic(FrameKind::kSketchRequest)) return std::nullopt;
  if (r.u8() != kSketchProtocolVersion) return std::nullopt;
  const std::uint8_t op = r.u8();
  if (!valid_sketch_op(op)) return std::nullopt;
  SketchRequest req;
  req.op = static_cast<SketchOp>(op);
  req.request_id = r.be64();
  req.epoch = r.be32();
  req.k = r.be16();
  const std::uint16_t key_len = r.be16();
  const auto key = r.view(key_len);
  if (!r.ok() || key.size() != key_len) return std::nullopt;
  // kEstimate addresses one key (k unused); kTopK addresses the tracker
  // (no key) and needs a positive k.
  if (req.op == SketchOp::kEstimate ? key_len == 0
                                    : (key_len != 0 || req.k == 0)) {
    return std::nullopt;
  }
  if (r.remaining() != 0) return std::nullopt;
  req.key.assign(key.begin(), key.end());
  return req;
}

std::vector<std::byte> encode_sketch_response(const SketchResponse& resp) {
  std::vector<std::byte> out;
  BufWriter w(out);
  w.be16(magic(FrameKind::kSketchResponse));
  w.u8(kSketchProtocolVersion);
  w.u8(static_cast<std::uint8_t>(resp.op));
  w.be64(resp.request_id);
  w.be32(resp.epoch);
  w.u8(resp.flags);
  w.be16(resp.stale_epochs);
  switch (resp.op) {
    case SketchOp::kEstimate:
      w.be64(resp.estimate);
      break;
    case SketchOp::kTopK: {
      w.be16(static_cast<std::uint16_t>(
          std::min<std::size_t>(resp.hitters.size(), 0xFFFF)));
      std::size_t emitted = 0;
      for (const HeavyHitterWire& hh : resp.hitters) {
        if (emitted++ == 0xFFFF) break;
        w.be64(hh.count);
        w.be16(static_cast<std::uint16_t>(hh.key.size()));
        w.bytes(hh.key);
      }
      break;
    }
  }
  return out;
}

std::optional<SketchResponse> parse_sketch_response(
    std::span<const std::byte> payload) {
  BufReader r(payload);
  if (r.be16() != magic(FrameKind::kSketchResponse)) return std::nullopt;
  if (r.u8() != kSketchProtocolVersion) return std::nullopt;
  const std::uint8_t op = r.u8();
  if (!valid_sketch_op(op)) return std::nullopt;
  SketchResponse resp;
  resp.op = static_cast<SketchOp>(op);
  resp.request_id = r.be64();
  resp.epoch = r.be32();
  resp.flags = r.u8();
  resp.stale_epochs = r.be16();
  if (!r.ok()) return std::nullopt;
  switch (resp.op) {
    case SketchOp::kEstimate:
      resp.estimate = r.be64();
      if (!r.ok()) return std::nullopt;
      break;
    case SketchOp::kTopK: {
      const std::uint16_t count = r.be16();
      if (!r.ok()) return std::nullopt;
      resp.hitters.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        HeavyHitterWire hh;
        hh.count = r.be64();
        const std::uint16_t key_len = r.be16();
        const auto key = r.view(key_len);
        if (!r.ok() || key.size() != key_len || key_len == 0) {
          return std::nullopt;
        }
        hh.key.assign(key.begin(), key.end());
        resp.hitters.push_back(std::move(hh));
      }
      break;
    }
  }
  // Trailing garbage after a structurally complete body is a framing error.
  if (r.remaining() != 0) return std::nullopt;
  return resp;
}

std::vector<std::byte> encode_subscribe_request(const SubscribeRequest& req) {
  std::vector<std::byte> out;
  out.reserve(41 + req.key.size());
  BufWriter w(out);
  w.be16(magic(FrameKind::kSubscribeRequest));
  w.u8(kGatewayProtocolVersion);
  w.u8(static_cast<std::uint8_t>(req.op));
  w.be64(req.request_id);
  w.be32(req.epoch);
  w.u8(static_cast<std::uint8_t>(req.kind));
  w.be32(req.collector);
  w.be64(req.threshold);
  w.be16(req.k);
  w.be64(req.subscription_id);
  w.be16(static_cast<std::uint16_t>(req.key.size()));
  w.bytes(req.key);
  return out;
}

std::optional<SubscribeRequest> parse_subscribe_request(
    std::span<const std::byte> payload) {
  BufReader r(payload);
  if (r.be16() != magic(FrameKind::kSubscribeRequest)) return std::nullopt;
  if (r.u8() != kGatewayProtocolVersion) return std::nullopt;
  SubscribeRequest req;
  const std::uint8_t op = r.u8();
  if (op != static_cast<std::uint8_t>(SubscribeOp::kSubscribe) &&
      op != static_cast<std::uint8_t>(SubscribeOp::kUnsubscribe)) {
    return std::nullopt;
  }
  req.op = static_cast<SubscribeOp>(op);
  req.request_id = r.be64();
  req.epoch = r.be32();
  const std::uint8_t kind = r.u8();
  if (!valid_standing_kind(kind)) return std::nullopt;
  req.kind = static_cast<StandingKind>(kind);
  req.collector = r.be32();
  req.threshold = r.be64();
  req.k = r.be16();
  req.subscription_id = r.be64();
  const std::uint16_t key_len = r.be16();
  const auto key = r.view(key_len);
  if (!r.ok() || key.size() != key_len) return std::nullopt;
  req.key.assign(key.begin(), key.end());
  return req;
}

std::vector<std::byte> encode_subscribe_ack(const SubscribeAck& ack) {
  std::vector<std::byte> out;
  out.reserve(27);
  BufWriter w(out);
  w.be16(magic(FrameKind::kSubscribeAck));
  w.u8(kGatewayProtocolVersion);
  w.u8(static_cast<std::uint8_t>(ack.op));
  w.be64(ack.request_id);
  w.be32(ack.epoch);
  w.u8(ack.flags);
  w.be16(ack.stale_epochs);
  w.be64(ack.subscription_id);
  return out;
}

std::optional<SubscribeAck> parse_subscribe_ack(
    std::span<const std::byte> payload) {
  BufReader r(payload);
  if (r.be16() != magic(FrameKind::kSubscribeAck)) return std::nullopt;
  if (r.u8() != kGatewayProtocolVersion) return std::nullopt;
  SubscribeAck ack;
  const std::uint8_t op = r.u8();
  if (op != static_cast<std::uint8_t>(SubscribeOp::kSubscribe) &&
      op != static_cast<std::uint8_t>(SubscribeOp::kUnsubscribe)) {
    return std::nullopt;
  }
  ack.op = static_cast<SubscribeOp>(op);
  ack.request_id = r.be64();
  ack.epoch = r.be32();
  ack.flags = r.u8();
  ack.stale_epochs = r.be16();
  ack.subscription_id = r.be64();
  if (!r.ok()) return std::nullopt;
  return ack;
}

std::vector<std::byte> encode_notification(const StandingNotification& note) {
  std::vector<std::byte> out;
  out.reserve(41 + note.key.size() + note.aux.size());
  BufWriter w(out);
  w.be16(magic(FrameKind::kNotification));
  w.u8(kGatewayProtocolVersion);
  w.u8(static_cast<std::uint8_t>(note.kind));
  w.be64(note.subscription_id);
  w.be64(note.seq);
  w.be64(note.gateway_epoch);
  w.u8(note.flags);
  w.be64(note.value);
  w.be16(static_cast<std::uint16_t>(note.key.size()));
  w.bytes(note.key);
  w.be16(static_cast<std::uint16_t>(note.aux.size()));
  w.bytes(note.aux);
  return out;
}

std::optional<StandingNotification> parse_notification(
    std::span<const std::byte> payload) {
  BufReader r(payload);
  if (r.be16() != magic(FrameKind::kNotification)) return std::nullopt;
  if (r.u8() != kGatewayProtocolVersion) return std::nullopt;
  StandingNotification note;
  const std::uint8_t kind = r.u8();
  if (!valid_standing_kind(kind)) return std::nullopt;
  note.kind = static_cast<StandingKind>(kind);
  note.subscription_id = r.be64();
  note.seq = r.be64();
  note.gateway_epoch = r.be64();
  note.flags = r.u8();
  note.value = r.be64();
  const std::uint16_t key_len = r.be16();
  const auto key = r.view(key_len);
  if (!r.ok() || key.size() != key_len) return std::nullopt;
  note.key.assign(key.begin(), key.end());
  const std::uint16_t aux_len = r.be16();
  const auto aux = r.view(aux_len);
  if (!r.ok() || aux.size() != aux_len) return std::nullopt;
  note.aux.assign(aux.begin(), aux.end());
  return note;
}

std::optional<Answer> parse_answer(std::span<const std::byte> payload) {
  const auto parsed = [](auto answer) -> std::optional<Answer> {
    if (!answer) return std::nullopt;
    return Answer{*std::move(answer)};
  };
  switch (frame_kind(payload)) {
    case FrameKind::kQueryResponse:
      return parsed(parse_query_response(payload));
    case FrameKind::kPrimitiveResponse:
      return parsed(parse_primitive_response(payload));
    case FrameKind::kSketchResponse:
      return parsed(parse_sketch_response(payload));
    case FrameKind::kSubscribeAck:
      return parsed(parse_subscribe_ack(payload));
    case FrameKind::kNotification:
      return parsed(parse_notification(payload));
    default:
      return std::nullopt;
  }
}

QueryResponse make_response(std::uint64_t request_id,
                            const QueryResult& result) {
  QueryResponse resp;
  resp.request_id = request_id;
  resp.outcome = result.outcome;
  resp.checksum_matches = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(result.checksum_matches, 0xFF));
  resp.distinct_values = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(result.distinct_values, 0xFF));
  resp.value = result.value;
  return resp;
}

}  // namespace dart::core
