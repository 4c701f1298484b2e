// The operator query protocol (§3.2, left side of Fig. 2).
//
// Queries are the one place DART uses the collector CPU, and they are
// network operations: the operator hashes the key to a collector id, looks
// the collector up in the directory, and sends a query request; the
// collector reads the key's N slots locally and replies. This module
// defines the wire format; query_client.hpp holds the client core both
// operator front ends share, and query_service.hpp the collector-side
// service node and the wire operator client for the fabric simulator.
//
// Request  (UDP, port 4800) — protocol v2:
//   [magic 0x4451 "DQ"][ver u8][policy u8][request id u64][epoch u32]
//   [key len u16][key bytes]
// Response (UDP, port 4800) — protocol v2:
//   [magic 0x4452 "DR"][ver u8][outcome u8][request id u64][epoch u32]
//   [flags u8][stale epochs u16]
//   [checksum matches u8][distinct values u8][value len u16][value bytes]
//
// v2 (this revision) added three fields for the failure model
// (docs/FAULTS.md): the response echoes the request's `epoch` so the client
// can compute staleness against its own epoch counter even when responses
// arrive out of order; `flags` bit 0 (kResponseDegraded) marks an answer
// served from a backup collector or a store known to have lost reports; and
// `stale_epochs` counts how many epochs of that key's data are missing or
// suspect. v1 frames (no epoch/flags) are rejected by version check — the
// operator and services deploy together in this model.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "core/query.hpp"

namespace dart::core {

inline constexpr std::uint16_t kDartQueryUdpPort = 4800;
inline constexpr std::uint8_t kQueryProtocolVersion = 2;

// --- Shared header prefix ---------------------------------------------------
//
// Every frame on UDP/4800 leads with [magic u16][ver u8][op u8]. Requests and
// responses of every family follow it with [request id u64][epoch u32], and
// responses then add [flags u8][stale epochs u16]; notifications carry their
// own body. The magic names the frame, so dispatch reads frame_kind() before
// committing to a parser, and the fixed offsets let the gateway and the
// clients re-stamp ids, epochs and staleness on encoded bytes. This header
// and its .cpp are the one place the magics and offsets live.

enum class FrameKind : std::uint16_t {
  kUnknown = 0,
  kQueryRequest = 0x4451,       // "DQ"
  kQueryResponse = 0x4452,      // "DR"
  kSketchRequest = 0x4453,      // "DS"
  kSketchResponse = 0x4454,     // "DT"
  kSubscribeRequest = 0x4455,   // "DU"
  kSubscribeAck = 0x4456,       // "DV"
  kNotification = 0x4457,       // "DW"
  kPrimitiveRequest = 0x4470,   // "Dp"
  kPrimitiveResponse = 0x4472,  // "Dr"
};

inline constexpr std::size_t kRequestIdOffset = 4;
inline constexpr std::size_t kEpochOffset = 12;
inline constexpr std::size_t kFlagsOffset = 16;        // responses only
inline constexpr std::size_t kStaleEpochsOffset = 17;  // responses only
inline constexpr std::size_t kResponseHeaderBytes = 19;

// The frame `payload`'s magic names; kUnknown for any other leading bytes.
[[nodiscard]] FrameKind frame_kind(std::span<const std::byte> payload);
// Request id of an encoded request or response; 0 if the payload is too
// short to carry one (no request is given id 0).
[[nodiscard]] std::uint64_t read_request_id(std::span<const std::byte> payload);
// Re-stamps the request id of an encoded request or response in place; a
// payload too short to carry one is left alone.
void write_request_id(std::span<std::byte> payload, std::uint64_t id);

// QueryResponse::flags bits (shared with PrimitiveResponse).
inline constexpr std::uint8_t kResponseDegraded = 0x01;
// The collector has no DTA primitive regions enabled — the primitive op was
// understood but cannot be answered (body is zeroed).
inline constexpr std::uint8_t kResponsePrimitiveUnavailable = 0x02;
// The collector's storage backend is not a sketch — the sketch op was
// understood but cannot be answered (body is zeroed).
inline constexpr std::uint8_t kResponseSketchUnavailable = 0x04;
// The query gateway exhausted its upstream retries for this request: the
// body is zeroed, the answer is synthesized, and kResponseDegraded rides
// along (a timed-out answer is by definition not trustworthy).
inline constexpr std::uint8_t kResponseGatewayTimeout = 0x08;
// A standing-query subscribe was understood but rejected (bad predicate
// parameters, e.g. top-k with k == 0 or a keyed kind with an empty key).
inline constexpr std::uint8_t kResponseSubscribeRejected = 0x10;

struct QueryRequest {
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;  // client's epoch counter at send time
  ReturnPolicy policy = ReturnPolicy::kPlurality;
  std::vector<std::byte> key;
};

struct QueryResponse {
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;        // echoed from the request (staleness anchor)
  std::uint8_t flags = 0;         // kResponseDegraded | reserved
  std::uint16_t stale_epochs = 0; // epochs of this key's data missing/suspect
  QueryOutcome outcome = QueryOutcome::kEmpty;
  std::uint8_t checksum_matches = 0;
  std::uint8_t distinct_values = 0;
  std::vector<std::byte> value;  // present iff outcome == kFound

  [[nodiscard]] bool degraded() const noexcept {
    return (flags & kResponseDegraded) != 0;
  }
};

[[nodiscard]] std::vector<std::byte> encode_query_request(const QueryRequest& req);
[[nodiscard]] std::optional<QueryRequest> parse_query_request(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_query_response(
    const QueryResponse& resp);
[[nodiscard]] std::optional<QueryResponse> parse_query_response(
    std::span<const std::byte> payload);

// Builds a response from a QueryEngine result.
[[nodiscard]] QueryResponse make_response(std::uint64_t request_id,
                                          const QueryResult& result);

// --- DTA primitive query ops (primitives.hpp) -------------------------------
//
// The three primitive read paths share UDP/4800 with the KV protocol; a
// distinct magic pair selects the family, so one service port carries both.
//
// Request  — primitive protocol v1:
//   [magic 0x4470 "Dp"][ver u8][op u8][request id u64][epoch u32]
//   [max entries u64][key len u16][key bytes]
//   kDrainRing ignores the key (len 0 required); the keyed ops require a
//   non-empty key and ignore max entries.
// Response — primitive protocol v1:
//   [magic 0x4472 "Dr"][ver u8][op u8][request id u64][epoch u32]
//   [flags u8][stale epochs u16]  followed by the op body:
//   kDrainRing:         [missed u64][next seq u64][value bytes u16]
//                       [count u16] then count × ([seq u64][value])
//   kReadCounter:       [cell index u64][counter value u64]
//   kReadPostcardGroup: [group u64][max hops u8][valid mask u32]
//                       [value bytes u16] then max_hops × [value]

inline constexpr std::uint8_t kPrimitiveProtocolVersion = 1;

enum class PrimitiveOp : std::uint8_t {
  kDrainRing = 1,         // Append: collect unread ring entries
  kReadCounter = 2,       // Key-Increment: read the cell owning a key
  kReadPostcardGroup = 3, // Postcarding: assemble a flow's slot group
};

struct PrimitiveRequest {
  PrimitiveOp op = PrimitiveOp::kDrainRing;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;
  std::uint64_t max_entries = 0;  // kDrainRing: 0 = no cap
  std::vector<std::byte> key;     // keyed ops only
};

struct RingEntryWire {
  std::uint64_t seq = 0;
  std::vector<std::byte> value;
};

struct PrimitiveResponse {
  PrimitiveOp op = PrimitiveOp::kDrainRing;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;         // echoed from the request
  std::uint8_t flags = 0;          // kResponseDegraded | kResponsePrimitiveUnavailable
  std::uint16_t stale_epochs = 0;

  // kDrainRing body.
  std::uint64_t missed = 0;
  std::uint64_t next_seq = 0;
  std::uint16_t entry_value_bytes = 0;
  std::vector<RingEntryWire> entries;

  // kReadCounter body.
  std::uint64_t cell_index = 0;
  std::uint64_t counter_value = 0;

  // kReadPostcardGroup body.
  std::uint64_t group_index = 0;
  std::uint8_t max_hops = 0;
  std::uint32_t valid_mask = 0;
  std::uint16_t hop_value_bytes = 0;
  std::vector<std::vector<std::byte>> hops;  // max_hops values

  [[nodiscard]] bool degraded() const noexcept {
    return (flags & kResponseDegraded) != 0;
  }
  [[nodiscard]] bool unavailable() const noexcept {
    return (flags & kResponsePrimitiveUnavailable) != 0;
  }
};

[[nodiscard]] std::vector<std::byte> encode_primitive_request(
    const PrimitiveRequest& req);
[[nodiscard]] std::optional<PrimitiveRequest> parse_primitive_request(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_primitive_response(
    const PrimitiveResponse& resp);
[[nodiscard]] std::optional<PrimitiveResponse> parse_primitive_response(
    std::span<const std::byte> payload);

// --- Sketch backend query ops (store_backend.hpp) ---------------------------
//
// Read path of sketch-backed collectors; shares UDP/4800 with the KV and
// primitive families via its own magic pair. kEstimate returns the count-min
// estimate for one key (and feeds the collector's heavy-hitter tracker as a
// side effect — the tracker is maintained entirely on the query path, so
// ingest stays zero-CPU). kTopK returns the tracker's current top-k.
//
// Request  — sketch protocol v1:
//   [magic 0x4453 "DS"][ver u8][op u8][request id u64][epoch u32]
//   [k u16][key len u16][key bytes]
//   kEstimate requires a non-empty key and ignores k; kTopK requires k >= 1
//   and an empty key (len 0).
// Response — sketch protocol v1:
//   [magic 0x4454 "DT"][ver u8][op u8][request id u64][epoch u32]
//   [flags u8][stale epochs u16]  followed by the op body:
//   kEstimate: [estimate u64]
//   kTopK:     [count u16] then count × ([estimate u64][key len u16][key])

inline constexpr std::uint8_t kSketchProtocolVersion = 1;

enum class SketchOp : std::uint8_t {
  kEstimate = 1,  // count-min estimate of one key
  kTopK = 2,      // current heavy-hitter candidates, strongest first
};

struct SketchRequest {
  SketchOp op = SketchOp::kEstimate;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;
  std::uint16_t k = 0;            // kTopK only; >= 1
  std::vector<std::byte> key;     // kEstimate only; non-empty
};

struct HeavyHitterWire {
  std::uint64_t count = 0;  // count-min estimate at response time
  std::vector<std::byte> key;
};

struct SketchResponse {
  SketchOp op = SketchOp::kEstimate;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;  // echoed from the request
  std::uint8_t flags = 0;   // kResponseDegraded | kResponseSketchUnavailable
  std::uint16_t stale_epochs = 0;

  // kEstimate body.
  std::uint64_t estimate = 0;

  // kTopK body: descending by count, ties broken by ascending key bytes.
  std::vector<HeavyHitterWire> hitters;

  [[nodiscard]] bool degraded() const noexcept {
    return (flags & kResponseDegraded) != 0;
  }
  [[nodiscard]] bool unavailable() const noexcept {
    return (flags & kResponseSketchUnavailable) != 0;
  }
};

[[nodiscard]] std::vector<std::byte> encode_sketch_request(
    const SketchRequest& req);
[[nodiscard]] std::optional<SketchRequest> parse_sketch_request(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_sketch_response(
    const SketchResponse& resp);
[[nodiscard]] std::optional<SketchResponse> parse_sketch_response(
    std::span<const std::byte> payload);

// --- Standing-query (gateway) ops (src/query/gateway.hpp) -------------------
//
// Sonata-style query-driven subscriptions: instead of polling, an operator
// registers a predicate with the query gateway once; the gateway evaluates
// all standing predicates against the collector pool on every epoch tick and
// PUSHES a notification frame when one fires. Three frame types share
// UDP/4800 with the other families via their own magics:
//
// Subscribe request  — gateway protocol v1:
//   [magic 0x4455 "DU"][ver u8][op u8][request id u64][epoch u32]
//   [kind u8][collector u32][threshold u64][k u16][subscription id u64]
//   [key len u16][key bytes]
//   op 1 = subscribe (subscription id must be 0; kind/params describe the
//   predicate), op 2 = unsubscribe (subscription id names the registration;
//   kind/params are ignored). kKeyChange and kCounterThreshold require a
//   non-empty key (the collector is re-hashed per evaluation, so failover
//   retargets are honored); kTopKDelta requires an empty key, k >= 1, and an
//   explicit collector id (trackers are per-collector).
// Subscribe ack      — gateway protocol v1:
//   [magic 0x4456 "DV"][ver u8][op u8][request id u64][epoch u32]
//   [flags u8][stale epochs u16][subscription id u64]
//   flags carries kResponseSubscribeRejected when the predicate was refused
//   (subscription id is then 0).
// Notification push  — gateway protocol v1 (unsolicited; no request id):
//   [magic 0x4457 "DW"][ver u8][kind u8][subscription id u64][seq u64]
//   [gateway epoch u64][flags u8][value u64][key len u16][key bytes]
//   [aux len u16][aux bytes]
//   seq counts notifications per subscription (gap detection under UDP
//   loss). Per kind: kKeyChange — key = watched key, value = 1 if found
//   else 0, aux = the key's current value bytes; kCounterThreshold — key =
//   watched key, value = the counter reading that crossed the threshold;
//   kTopKDelta — key = the key that entered the top-k, value = its estimate.

inline constexpr std::uint8_t kGatewayProtocolVersion = 1;

enum class StandingKind : std::uint8_t {
  kKeyChange = 1,         // KV value of a key changed (incl. first sighting)
  kCounterThreshold = 2,  // Key-Increment counter crossed a threshold upward
  kTopKDelta = 3,         // a key entered a sketch collector's top-k set
};

enum class SubscribeOp : std::uint8_t { kSubscribe = 1, kUnsubscribe = 2 };

struct SubscribeRequest {
  SubscribeOp op = SubscribeOp::kSubscribe;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;
  StandingKind kind = StandingKind::kKeyChange;
  std::uint32_t collector = 0;     // kTopKDelta only
  std::uint64_t threshold = 0;     // kCounterThreshold only
  std::uint16_t k = 0;             // kTopKDelta only; >= 1
  std::uint64_t subscription_id = 0;  // kUnsubscribe only
  std::vector<std::byte> key;      // keyed kinds only
};

struct SubscribeAck {
  SubscribeOp op = SubscribeOp::kSubscribe;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;  // echoed from the request
  std::uint8_t flags = 0;   // kResponseSubscribeRejected on refusal
  std::uint16_t stale_epochs = 0;
  std::uint64_t subscription_id = 0;  // 0 iff rejected

  [[nodiscard]] bool rejected() const noexcept {
    return (flags & kResponseSubscribeRejected) != 0;
  }
};

struct StandingNotification {
  StandingKind kind = StandingKind::kKeyChange;
  std::uint64_t subscription_id = 0;
  std::uint64_t seq = 0;            // per-subscription, starts at 1
  std::uint64_t gateway_epoch = 0;  // epoch tick that fired the predicate
  std::uint8_t flags = 0;           // kResponseDegraded if the read was
  std::uint64_t value = 0;
  std::vector<std::byte> key;
  std::vector<std::byte> aux;  // kKeyChange: the key's current value bytes
};

[[nodiscard]] std::vector<std::byte> encode_subscribe_request(
    const SubscribeRequest& req);
[[nodiscard]] std::optional<SubscribeRequest> parse_subscribe_request(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_subscribe_ack(
    const SubscribeAck& ack);
[[nodiscard]] std::optional<SubscribeAck> parse_subscribe_ack(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_notification(
    const StandingNotification& note);
[[nodiscard]] std::optional<StandingNotification> parse_notification(
    std::span<const std::byte> payload);

// --- Answers ----------------------------------------------------------------

// Any frame a client receives on UDP/4800, parsed.
using Answer = std::variant<QueryResponse, PrimitiveResponse, SketchResponse,
                            SubscribeAck, StandingNotification>;

// Parses `payload` with the parser its magic names; nullopt if it is no
// answer frame or does not parse as the one it claims to be.
[[nodiscard]] std::optional<Answer> parse_answer(
    std::span<const std::byte> payload);

}  // namespace dart::core
