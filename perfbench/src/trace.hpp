// Span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (the program itself is not instrumented). Each span keeps
// its kind, start, end, parent span and request id in memory; the ledger is
// computed from them when the run ends and the raw spans of one episode are
// written out as CSV. When the tracer is disabled a Scope costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Layers are named after the repository's modules.
enum class Layer : std::uint8_t {
  kTelemetry,
  kNet,
  kSwitchsim,
  kRdma,
  kCore,
  kQuery,
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

// Every span kind the workloads record. The name's prefix is its layer.
enum class SpanKind : std::uint8_t {
  kSendFlow,            // telemetry.send_flow: WireFabric::send_flow
  kNetRunIngest,        // net.run.ingest: Simulator::run draining reports
  kNetRunQuery,         // net.run.query: Simulator::run draining reads
  kCraftBatch,          // switchsim.on_telemetry_batch
  kCraftIncrement,      // switchsim.on_increment_event
  kRnicKv,              // rdma.process_frames.kv
  kRnicSketch,          // rdma.process_frames.sketch
  kOperatorQuery,       // core.operator_query: OperatorClient::query
  kOperatorTake,        // core.operator_take: OperatorClient::take_response
  kServiceReceive,      // core.query_service_receive: QueryServiceNode
  kSessionSubmit,       // query.session_submit: GatewaySession reads
  kSessionTake,         // query.session_take: GatewaySession::take_*
  kGatewayReceive,      // query.gateway_receive: QueryGateway::receive
  kOnEpoch,             // query.on_epoch: QueryGateway::on_epoch
  kCount,
};

[[nodiscard]] const char* span_name(SpanKind kind) noexcept;
[[nodiscard]] Layer span_layer(SpanKind kind) noexcept;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  SpanKind kind = SpanKind::kCount;
  std::uint32_t parent = kNoParent;  // index into the span vector
  std::uint64_t request = 0;         // 0 = not tied to one request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  static constexpr std::uint32_t kNoParent = 0xFFFF'FFFFu;
};

// Totals the ledger derives from a set of spans.
struct SpanTotals {
  std::uint64_t count[static_cast<int>(SpanKind::kCount)] = {};
  double total_ns[static_cast<int>(SpanKind::kCount)] = {};
  double self_ns[static_cast<int>(SpanKind::kCount)] = {};
  double layer_self_ns[static_cast<int>(Layer::kCount)] = {};
  double top_level_ns = 0;  // time covered by spans without a parent
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  // Opens a span nested under the innermost open one; returns its index.
  std::uint32_t open(SpanKind kind, std::uint64_t request) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    Span span;
    span.kind = kind;
    span.parent = stack_.empty() ? Span::kNoParent : stack_.back();
    span.request = request;
    spans_.push_back(span);
    stack_.push_back(index);
    spans_[index].start_ns = now_ns();
    return index;
  }
  void close(std::uint32_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  // Durations of every span of one kind (for percentiles).
  [[nodiscard]] std::vector<double> durations(SpanKind kind) const;
  [[nodiscard]] SpanTotals totals() const;
  void clear() {
    spans_.clear();
    stack_.clear();
  }
  // Writes the spans as CSV (name,layer,index,parent,request,start,end);
  // returns false on I/O failure.
  bool write_csv(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

// RAII span; a no-op while the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, SpanKind kind, std::uint64_t request = 0)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) index_ = tracer_->open(kind, request);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_ = 0;
};

}  // namespace perfbench
