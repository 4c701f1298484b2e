#include "core/store_backend.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace dart::core {

const char* to_string(StoreBackendKind kind) noexcept {
  switch (kind) {
    case StoreBackendKind::kKv: return "kv";
    case StoreBackendKind::kSketch: return "sketch";
  }
  return "?";
}

QueryResult KvBackend::resolve(std::span<const std::byte> key,
                               ReturnPolicy policy) const {
  return QueryEngine(store_).resolve(key, policy);
}

// ---------------------------------------------------------------------------
// SketchBackend
// ---------------------------------------------------------------------------

QueryResult SketchBackend::resolve(std::span<const std::byte> key,
                                   ReturnPolicy /*policy*/) const {
  // A sketch has no per-key value to vote over; the resolve contract here is
  // the point estimate, serialized 8-byte little-endian (the sim_key width).
  QueryResult result;
  const std::uint64_t est = estimate(key);
  if (est == 0) return result;  // never counted (or column still zero)
  result.outcome = QueryOutcome::kFound;
  result.checksum_matches = config_.rows;  // cells consulted
  result.distinct_values = 1;
  result.value.resize(8);
  for (int i = 0; i < 8; ++i) {
    result.value[static_cast<std::size_t>(i)] =
        static_cast<std::byte>((est >> (8 * i)) & 0xFF);
  }
  return result;
}

void SketchBackend::clear() {
  cells_.clear();
  candidates_.clear();
  offers_ = 0;
  offers_evicted_ = 0;
  offers_rejected_ = 0;
}

void SketchBackend::offer(std::span<const std::byte> key) {
  ++offers_;
  for (const auto& candidate : candidates_) {
    if (candidate.size() == key.size() &&
        std::memcmp(candidate.data(), key.data(), key.size()) == 0) {
      return;  // already tracked; top_k() re-estimates from live cells
    }
  }
  if (candidates_.size() < config_.topk_capacity) {
    candidates_.emplace_back(key.begin(), key.end());
    return;
  }
  // At capacity: evict the weakest candidate only for a strictly stronger
  // newcomer, so a flood of mice cannot churn out an established elephant.
  std::size_t weakest = 0;
  std::uint64_t weakest_est = UINT64_MAX;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    const std::uint64_t est = estimate(candidates_[i]);
    if (est < weakest_est) {
      weakest_est = est;
      weakest = i;
    }
  }
  if (estimate(key) > weakest_est) {
    candidates_[weakest].assign(key.begin(), key.end());
    ++offers_evicted_;
  } else {
    ++offers_rejected_;
  }
}

std::vector<HeavyHitter> SketchBackend::top_k(std::size_t k) const {
  std::vector<HeavyHitter> out;
  out.reserve(candidates_.size());
  for (const auto& candidate : candidates_) {
    out.push_back(HeavyHitter{candidate, estimate(candidate)});
  }
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              if (a.count != b.count) return a.count > b.count;
              return std::lexicographical_compare(a.key.begin(), a.key.end(),
                                                  b.key.begin(), b.key.end());
            });
  if (out.size() > k) out.resize(k);
  return out;
}

// ---------------------------------------------------------------------------
// factory
// ---------------------------------------------------------------------------

std::unique_ptr<StoreBackend> make_backend(const DartConfig& dart,
                                           const StoreBackendConfig& backend,
                                           std::span<std::byte> memory) {
  assert(backend.valid(dart));
  assert(memory.size() == backend.memory_bytes(dart));
  switch (backend.kind) {
    case StoreBackendKind::kKv:
      return std::make_unique<KvBackend>(dart, memory);
    case StoreBackendKind::kSketch:
      return std::make_unique<SketchBackend>(backend.sketch, memory);
  }
  return nullptr;
}

std::unique_ptr<StoreBackend> make_backend(const DartConfig& dart,
                                           const StoreBackendConfig& backend) {
  assert(backend.valid(dart));
  switch (backend.kind) {
    case StoreBackendKind::kKv:
      return std::make_unique<KvBackend>(dart);
    case StoreBackendKind::kSketch:
      return std::make_unique<SketchBackend>(backend.sketch);
  }
  return nullptr;
}

}  // namespace dart::core
