// The client core of the query plane (§3.2): what an operator-side front end
// does with a request besides moving it.
//
// ClientCore builds the six reads and the four standing-query requests,
// stamps each with a fresh id and the front end's epoch, parses every
// answer, files it under the id the caller holds, and hands it out once
// through the take_* accessors. A front end supplies three things: where a
// request goes (dispatch), which epoch it carries (request_epoch), and how
// an answer's wire id maps back to the id the caller holds (settle).
// OperatorClient (query_service.hpp) sends over UDP/4800 and retries under
// fresh wire ids; GatewaySession (query/gateway.hpp) submits to an
// in-process QueryGateway, which re-stamps every answer with the session's
// own id.
//
// InflightTable is the retry ledger OperatorClient and the gateway's upstream
// leg both keep.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/query_protocol.hpp"

namespace dart::core {

// One read as a front end hands it on: its encoding, request id and epoch
// stamped, plus what routing and the gateway's cache key need.
struct ReadRequest {
  FrameKind kind = FrameKind::kQueryRequest;  // the request's family
  std::uint8_t op = 0;  // return policy (KV) or op byte (primitive, sketch)
  std::uint16_t k = 0;  // sketch top-k
  std::span<const std::byte> key;          // keyed reads: routing key
  std::optional<std::uint32_t> collector;  // collector-addressed reads
  std::vector<std::byte> payload;
};

// Read builders, one per family; the op picks the read. `collector` is set
// for the collector-addressed ops (drain-ring, top-k), `key` for the others.
[[nodiscard]] ReadRequest kv_read(std::uint64_t id, std::uint32_t epoch,
                                  std::span<const std::byte> key,
                                  ReturnPolicy policy);
[[nodiscard]] ReadRequest primitive_read(
    std::uint64_t id, std::uint32_t epoch, PrimitiveOp op,
    std::span<const std::byte> key,
    std::optional<std::uint32_t> collector = std::nullopt,
    std::uint64_t max_entries = 0);
[[nodiscard]] ReadRequest sketch_read(
    std::uint64_t id, std::uint32_t epoch, SketchOp op,
    std::span<const std::byte> key,
    std::optional<std::uint32_t> collector = std::nullopt,
    std::uint16_t k = 0);

class ClientCore {
 public:
  virtual ~ClientCore() = default;
  ClientCore(const ClientCore&) = delete;
  ClientCore& operator=(const ClientCore&) = delete;

  // --- the six reads --------------------------------------------------------
  //
  // Each returns the id its answer is taken by, or 0 if the request could
  // not be sent (no such collector, or its address does not resolve).

  // KV read of `key` under `policy` (§3.2); answer via take_response().
  std::uint64_t query(std::span<const std::byte> key,
                      ReturnPolicy policy = ReturnPolicy::kPlurality);
  // Drains collector `collector_id`'s Append ring (rings are per-collector,
  // so drain targets an explicit collector, not a hashed key).
  // `max_entries` 0 = no cap.
  std::uint64_t drain_ring(std::uint32_t collector_id,
                           std::uint64_t max_entries = 0);
  // Reads the Key-Increment cell owning `key` (hash-routed like query()).
  std::uint64_t read_counter(std::span<const std::byte> key);
  // Reads `flow_key`'s postcard slot group (hash-routed like query()).
  std::uint64_t read_postcard_group(std::span<const std::byte> flow_key);
  // Count-min estimate for `key` (hash-routed like query()).
  std::uint64_t sketch_estimate(std::span<const std::byte> key);
  // Top-k heavy hitters tracked by collector `collector_id` (trackers are
  // per-collector). `k` >= 1.
  std::uint64_t sketch_topk(std::uint32_t collector_id, std::uint16_t k);

  // --- answers -------------------------------------------------------------
  //
  // An answer, if it has arrived, by the id its request returned; each is
  // handed out once.
  [[nodiscard]] std::optional<QueryResponse> take_response(std::uint64_t id) {
    return take<QueryResponse>(id);
  }
  [[nodiscard]] std::optional<PrimitiveResponse> take_primitive_response(
      std::uint64_t id) {
    return take<PrimitiveResponse>(id);
  }
  [[nodiscard]] std::optional<SketchResponse> take_sketch_response(
      std::uint64_t id) {
    return take<SketchResponse>(id);
  }
  [[nodiscard]] std::optional<SubscribeAck> take_subscribe_ack(
      std::uint64_t id) {
    return take<SubscribeAck>(id);
  }
  // Drains every notification received so far (arrival order).
  [[nodiscard]] std::vector<StandingNotification> take_notifications();
  [[nodiscard]] std::uint64_t notifications_received() const noexcept {
    return notifications_received_;
  }

 protected:
  ClientCore() = default;

  // Where a request goes: sends or submits `read`; false if it could not.
  virtual bool dispatch(ReadRequest read) = 0;
  // Which epoch a request carries.
  [[nodiscard]] virtual std::uint32_t request_epoch() const = 0;
  // How an answer's wire id maps back: the id its caller holds, or nullopt
  // when no request in flight owns it (a duplicate, replay or unknown id).
  virtual std::optional<std::uint64_t> settle(std::uint64_t wire_id) = 0;

  // Standing-query requests, stamped with a fresh id and request_epoch().
  [[nodiscard]] SubscribeRequest key_change_request(
      std::span<const std::byte> key);
  [[nodiscard]] SubscribeRequest counter_threshold_request(
      std::span<const std::byte> key, std::uint64_t threshold);
  [[nodiscard]] SubscribeRequest topk_delta_request(std::uint32_t collector_id,
                                                    std::uint16_t k);
  [[nodiscard]] SubscribeRequest unsubscribe_request(
      std::uint64_t subscription_id);

  // Parses an answer frame and files it; false if it does not parse or
  // settle() disowns it.
  bool accept(std::span<const std::byte> payload);
  // Files a parsed answer: notifications as they come (a push answers no
  // request), everything else under the id settle() maps its wire id to.
  bool file(Answer answer);

  [[nodiscard]] std::uint64_t next_id() noexcept { return next_id_++; }

  std::uint64_t degraded_ = 0;  // read answers filed with the degraded flag

 private:
  template <typename T>
  using Inbox = std::unordered_map<std::uint64_t, T>;

  std::uint64_t send(ReadRequest read);
  [[nodiscard]] SubscribeRequest stamped(SubscribeRequest request);

  template <typename T>
  std::optional<T> take(std::uint64_t id) {
    auto& inbox = std::get<Inbox<T>>(inboxes_);
    const auto it = inbox.find(id);
    if (it == inbox.end()) return std::nullopt;
    T answer = std::move(it->second);
    inbox.erase(it);
    return answer;
  }

  std::uint64_t next_id_ = 1;
  std::tuple<Inbox<QueryResponse>, Inbox<PrimitiveResponse>,
             Inbox<SketchResponse>, Inbox<SubscribeAck>>
      inboxes_;
  std::vector<StandingNotification> notifications_;
  std::uint64_t notifications_received_ = 0;
};

// Requests in flight under the fresh-wire-id retry discipline. A request is
// booked under its logical id, the wire id of its first send. A retry
// re-stamps the stored encoding with a fresh wire id and aliases that id to
// the same entry: a service that served the lost original sees a new
// request, and whichever copy's answer arrives first retires the request
// exactly once. Retiring forgets every alias together, so the late twin of
// a retried request finds nothing. `Extra` is what the owner keeps per
// request (OperatorClient: the destination; the gateway: its waiters, cache
// key and coalescing state).
template <typename Extra>
class InflightTable {
 public:
  struct Entry {
    std::vector<std::byte> payload;    // the newest send's encoding
    std::uint64_t newest_wire_id = 0;  // only its deadline may retry
    std::uint32_t retries_left = 0;
    std::vector<std::uint64_t> wire_ids;  // the first send and every retry
    Extra extra;
  };

  // Books a request about to go out under wire id `logical` (stamped into
  // `payload`) with `retries` resends allowed.
  Entry& book(std::uint64_t logical, std::vector<std::byte> payload,
              std::uint32_t retries, Extra extra) {
    write_request_id(payload, logical);
    alias_[logical] = logical;
    return entries_
        .emplace(logical, Entry{std::move(payload), logical, retries,
                                {logical}, std::move(extra)})
        .first->second;
  }

  [[nodiscard]] Entry* find(std::uint64_t logical) {
    const auto it = entries_.find(logical);
    return it == entries_.end() ? nullptr : &it->second;
  }

  // The logical id `wire_id` stands for while its request is in flight.
  [[nodiscard]] std::optional<std::uint64_t> logical_of(
      std::uint64_t wire_id) const {
    const auto it = alias_.find(wire_id);
    if (it == alias_.end()) return std::nullopt;
    return it->second;
  }

  // Removes in-flight request `logical` with every alias, and returns it.
  Entry retire(std::uint64_t logical) {
    const auto it = entries_.find(logical);
    Entry entry = std::move(it->second);
    entries_.erase(it);
    for (const auto id : entry.wire_ids) alias_.erase(id);
    return entry;
  }

  // The deadline armed for send `wire_id` of `logical` fired: the entry if
  // that send is still the newest of a request in flight; nullptr if the
  // request was answered or a retry owns the deadline now.
  [[nodiscard]] Entry* expired(std::uint64_t logical, std::uint64_t wire_id) {
    Entry* entry = find(logical);
    return entry != nullptr && entry->newest_wire_id == wire_id ? entry
                                                                : nullptr;
  }

  // Spends one retry of `entry` (booked under `logical`): re-stamps it under
  // `fresh` for the caller to resend.
  void restamp(std::uint64_t logical, Entry& entry, std::uint64_t fresh) {
    --entry.retries_left;
    write_request_id(entry.payload, fresh);
    entry.newest_wire_id = fresh;
    entry.wire_ids.push_back(fresh);
    alias_[fresh] = logical;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::unordered_map<std::uint64_t, std::uint64_t> alias_;
};

}  // namespace dart::core
