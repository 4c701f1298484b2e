#include "pool.hpp"

#include <cstdio>
#include <cstdlib>

#include "harness.hpp"

namespace perfbench {

using namespace dart;

namespace {

// Collectors sit at 10.0.100.<id>; a report frame's IPv4 destination is at
// byte 30 (Ethernet 14 + IPv4 offset 16).
constexpr std::size_t kDstIpOffset = 30;
constexpr std::uint8_t kCollectorNet[3] = {10, 0, 100};

}  // namespace

MixedPool::MixedPool(const PoolConfig& config)
    : config_(config), crafter_(config.dart) {
  const std::uint32_t n = config.n_kv + config.n_sketch;
  const auto& prim = config.prim;
  for (std::uint32_t c = 0; c < n; ++c) {
    core::CollectorEndpoint ep;
    ep.mac = {0x02, 0x00, 0xC0, 0x11, 0x00, static_cast<std::uint8_t>(c)};
    ep.ip = net::Ipv4Addr::from_octets(kCollectorNet[0], kCollectorNet[1],
                                       kCollectorNet[2],
                                       static_cast<std::uint8_t>(c));
    core::StoreBackendConfig backend;
    if (is_sketch(c)) {
      backend.kind = core::StoreBackendKind::kSketch;
      backend.sketch = config.sketch;
    }
    collectors_.push_back(
        std::make_unique<core::Collector>(config.dart, c, ep, backend));
    if (config.primitives && !collectors_.back()->enable_primitives(prim).ok()) {
      std::fprintf(stderr, "enable_primitives failed on collector %u\n", c);
      std::abort();
    }
  }
  for (std::uint32_t s = 0; s < config.n_switches; ++s) {
    switchsim::DartSwitchPipeline::Config sc;
    sc.dart = config.dart;
    sc.mac = {0x02, 0x00, 0x5A, 0x00, 0x00, static_cast<std::uint8_t>(s)};
    sc.ip = net::Ipv4Addr::from_octets(10, 1, 0, static_cast<std::uint8_t>(s));
    sc.rng_seed = config.seed * 1000 + s;
    sc.write_mode = core::WriteMode::kAllSlots;
    sc.primitives = prim;
    sc.sketch = config.sketch;
    auto sw = std::make_unique<switchsim::DartSwitchPipeline>(sc);
    for (auto& col : collectors_) {
      sw->load_collector(col->remote_info());
      if (config.primitives) {
        sw->load_primitives(col->remote_ring_info(), col->remote_counter_info(),
                            col->remote_postcard_info());
      }
    }
    switches_.push_back(std::move(sw));
  }
  batches_.resize(n);
}

void MixedPool::deliver(const std::vector<std::vector<std::byte>>& frames,
                        Tracer& tracer) {
  for (auto& b : batches_) b.clear();
  for (const auto& f : frames) {
    const auto* ip = reinterpret_cast<const std::uint8_t*>(f.data()) + kDstIpOffset;
    if (f.size() < kDstIpOffset + 4 || ip[0] != kCollectorNet[0] ||
        ip[1] != kCollectorNet[1] || ip[2] != kCollectorNet[2] ||
        ip[3] >= batches_.size()) {
      ++unroutable_;
      continue;
    }
    batches_[ip[3]].emplace_back(f);
  }
  for (std::uint32_t c = 0; c < batches_.size(); ++c) {
    if (batches_[c].empty()) continue;
    if (is_sketch(c)) {
      sketch_frames_ += batches_[c].size();
      Scope span(tracer, SpanKind::kRnicSketch);
      (void)collectors_[c]->rnic().process_frames(batches_[c]);
    } else {
      kv_frames_ += batches_[c].size();
      Scope span(tracer, SpanKind::kRnicKv);
      (void)collectors_[c]->rnic().process_frames(batches_[c]);
    }
  }
}

std::uint64_t MixedPool::frames_emitted() const noexcept {
  std::uint64_t n = 0;
  for (const auto& sw : switches_) n += sw->counters().reports_emitted;
  return n;
}

RnicTotals MixedPool::rnic_totals() const noexcept {
  RnicTotals t;
  for (const auto& col : collectors_) {
    const auto& rc = col->ingest_counters();
    t.frames += rc.frames;
    t.executed += rc.executed;
    t.rejects += count_rejects(rc, nullptr);
  }
  return t;
}

}  // namespace perfbench
