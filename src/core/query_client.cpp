#include "core/query_client.hpp"

#include <type_traits>
#include <utility>

namespace dart::core {

ReadRequest kv_read(std::uint64_t id, std::uint32_t epoch,
                    std::span<const std::byte> key, ReturnPolicy policy) {
  QueryRequest request;
  request.request_id = id;
  request.epoch = epoch;
  request.policy = policy;
  request.key.assign(key.begin(), key.end());
  return {FrameKind::kQueryRequest, static_cast<std::uint8_t>(policy), 0, key,
          std::nullopt, encode_query_request(request)};
}

ReadRequest primitive_read(std::uint64_t id, std::uint32_t epoch,
                           PrimitiveOp op, std::span<const std::byte> key,
                           std::optional<std::uint32_t> collector,
                           std::uint64_t max_entries) {
  PrimitiveRequest request;
  request.op = op;
  request.request_id = id;
  request.epoch = epoch;
  request.max_entries = max_entries;
  request.key.assign(key.begin(), key.end());
  return {FrameKind::kPrimitiveRequest, static_cast<std::uint8_t>(op), 0, key,
          collector, encode_primitive_request(request)};
}

ReadRequest sketch_read(std::uint64_t id, std::uint32_t epoch, SketchOp op,
                        std::span<const std::byte> key,
                        std::optional<std::uint32_t> collector,
                        std::uint16_t k) {
  SketchRequest request;
  request.op = op;
  request.request_id = id;
  request.epoch = epoch;
  request.k = k;
  request.key.assign(key.begin(), key.end());
  return {FrameKind::kSketchRequest, static_cast<std::uint8_t>(op), k, key,
          collector, encode_sketch_request(request)};
}

std::uint64_t ClientCore::send(ReadRequest read) {
  const std::uint64_t id = read_request_id(read.payload);
  return dispatch(std::move(read)) ? id : 0;
}

std::uint64_t ClientCore::query(std::span<const std::byte> key,
                                ReturnPolicy policy) {
  return send(kv_read(next_id_++, request_epoch(), key, policy));
}

std::uint64_t ClientCore::drain_ring(std::uint32_t collector_id,
                                     std::uint64_t max_entries) {
  return send(primitive_read(next_id_++, request_epoch(),
                             PrimitiveOp::kDrainRing, {}, collector_id,
                             max_entries));
}

std::uint64_t ClientCore::read_counter(std::span<const std::byte> key) {
  return send(primitive_read(next_id_++, request_epoch(),
                             PrimitiveOp::kReadCounter, key));
}

std::uint64_t ClientCore::read_postcard_group(
    std::span<const std::byte> flow_key) {
  return send(primitive_read(next_id_++, request_epoch(),
                             PrimitiveOp::kReadPostcardGroup, flow_key));
}

std::uint64_t ClientCore::sketch_estimate(std::span<const std::byte> key) {
  return send(
      sketch_read(next_id_++, request_epoch(), SketchOp::kEstimate, key));
}

std::uint64_t ClientCore::sketch_topk(std::uint32_t collector_id,
                                      std::uint16_t k) {
  return send(sketch_read(next_id_++, request_epoch(), SketchOp::kTopK, {},
                          collector_id, k));
}

SubscribeRequest ClientCore::stamped(SubscribeRequest request) {
  request.request_id = next_id_++;
  request.epoch = request_epoch();
  return request;
}

SubscribeRequest ClientCore::key_change_request(
    std::span<const std::byte> key) {
  SubscribeRequest request;
  request.kind = StandingKind::kKeyChange;
  request.key.assign(key.begin(), key.end());
  return stamped(std::move(request));
}

SubscribeRequest ClientCore::counter_threshold_request(
    std::span<const std::byte> key, std::uint64_t threshold) {
  SubscribeRequest request;
  request.kind = StandingKind::kCounterThreshold;
  request.threshold = threshold;
  request.key.assign(key.begin(), key.end());
  return stamped(std::move(request));
}

SubscribeRequest ClientCore::topk_delta_request(std::uint32_t collector_id,
                                                std::uint16_t k) {
  SubscribeRequest request;
  request.kind = StandingKind::kTopKDelta;
  request.collector = collector_id;
  request.k = k;
  return stamped(std::move(request));
}

SubscribeRequest ClientCore::unsubscribe_request(
    std::uint64_t subscription_id) {
  SubscribeRequest request;
  request.op = SubscribeOp::kUnsubscribe;
  request.subscription_id = subscription_id;
  return stamped(std::move(request));
}

bool ClientCore::accept(std::span<const std::byte> payload) {
  auto answer = parse_answer(payload);
  return answer && file(*std::move(answer));
}

bool ClientCore::file(Answer answer) {
  return std::visit(
      [this](auto& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, StandingNotification>) {
          ++notifications_received_;
          notifications_.push_back(std::move(a));
          return true;
        } else {
          // First answer for any wire id of a request retires it;
          // duplicates and replays (UDP can deliver both) are disowned.
          const auto logical = settle(a.request_id);
          if (!logical) return false;
          if constexpr (!std::is_same_v<T, SubscribeAck>) {
            if (a.degraded()) ++degraded_;
          }
          // Filed under the id the caller holds, even when a retry's fresh
          // wire id carried the answer home.
          a.request_id = *logical;
          std::get<Inbox<T>>(inboxes_)[*logical] = std::move(a);
          return true;
        }
      },
      answer);
}

std::vector<StandingNotification> ClientCore::take_notifications() {
  std::vector<StandingNotification> drained;
  drained.swap(notifications_);
  return drained;
}

}  // namespace dart::core
