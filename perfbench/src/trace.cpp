#include "trace.hpp"

#include <cstdio>

namespace perfbench {

namespace {

struct KindInfo {
  const char* name;
  Layer layer;
};

constexpr KindInfo kKinds[] = {
    {"telemetry.send_flow", Layer::kTelemetry},
    {"net.run.ingest", Layer::kNet},
    {"net.run.query", Layer::kNet},
    {"switchsim.on_telemetry_batch", Layer::kSwitchsim},
    {"switchsim.on_increment_event", Layer::kSwitchsim},
    {"rdma.process_frames.kv", Layer::kRdma},
    {"rdma.process_frames.sketch", Layer::kRdma},
    {"core.operator_query", Layer::kCore},
    {"core.operator_take", Layer::kCore},
    {"core.query_service_receive", Layer::kCore},
    {"query.session_submit", Layer::kQuery},
    {"query.session_take", Layer::kQuery},
    {"query.gateway_receive", Layer::kQuery},
    {"query.on_epoch", Layer::kQuery},
};
static_assert(std::size(kKinds) == static_cast<std::size_t>(SpanKind::kCount));

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kTelemetry: return "telemetry";
    case Layer::kNet: return "net";
    case Layer::kSwitchsim: return "switchsim";
    case Layer::kRdma: return "rdma";
    case Layer::kCore: return "core";
    case Layer::kQuery: return "query";
    case Layer::kCount: break;
  }
  return "?";
}

const char* span_name(SpanKind kind) noexcept {
  return kKinds[static_cast<int>(kind)].name;
}

Layer span_layer(SpanKind kind) noexcept {
  return kKinds[static_cast<int>(kind)].layer;
}

std::vector<double> Tracer::durations(SpanKind kind) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.kind == kind) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

SpanTotals Tracer::totals() const {
  SpanTotals t;
  // Self time = own duration minus the part its children cover. Children
  // nest strictly inside their parent (they are opened and closed while the
  // parent is the innermost open span), so subtracting durations is exact.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    const auto d = static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent == Span::kNoParent) {
      t.top_level_ns += d;
    } else {
      child_ns[s.parent] += d;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const auto k = static_cast<int>(s.kind);
    const auto d = static_cast<double>(s.end_ns - s.start_ns);
    const double self = d - child_ns[i];
    ++t.count[k];
    t.total_ns[k] += d;
    t.self_ns[k] += self;
    t.layer_self_ns[static_cast<int>(span_layer(s.kind))] += self;
  }
  return t;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,layer,index,parent,request,start_ns,end_ns\n");
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f, "%s,%s,%zu,%lld,%llu,%lld,%lld\n", span_name(s.kind),
                 layer_name(span_layer(s.kind)), i,
                 s.parent == Span::kNoParent
                     ? -1LL
                     : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
