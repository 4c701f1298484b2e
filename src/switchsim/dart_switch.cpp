#include "switchsim/dart_switch.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

namespace dart::switchsim {

DartSwitchPipeline::DartSwitchPipeline(const Config& config)
    : config_(config),
      sketch_geometry_(config.sketch.geometry()),
      hash_engine_(config.dart.n_addresses, config.dart.master_seed),
      rng_(config.rng_seed),
      psn_regs_(config.max_collectors, 0),
      append_tails_(config.max_collectors, 0),
      crafter_(config.dart) {
  self_.mac = config.mac;
  self_.ip = config.ip;
  if (config_.dart.selection == core::CollectorSelection::kRing) {
    // Ring capacity = max_collectors: every replica of this deployment must
    // use the same value or their rings disagree (it feeds the permutation
    // table height). Both selectors start empty; load_collector /
    // load_primitives admit members as their rows install.
    kv_selector_ = std::make_unique<core::CollectorSelector>(
        config_.dart, config_.max_collectors);
    kv_selector_->set_members({});
    prim_selector_ = std::make_unique<core::CollectorSelector>(
        config_.dart, config_.max_collectors);
    prim_selector_->set_members({});
  }
}

void DartSwitchPipeline::load_primitives(
    const core::RemoteStoreInfo& ring_row,
    const core::RemoteStoreInfo& counter_row,
    const core::RemoteStoreInfo& postcard_row) {
  const std::uint32_t id = ring_row.collector_id;
  assert(counter_row.collector_id == id && postcard_row.collector_id == id);

  PrimitiveTemplates tpls;
  tpls.append =
      crafter_.make_append_template(ring_row, self_, config_.primitives.ring);
  tpls.increment =
      crafter_.make_atomic_template(counter_row, self_, rdma::Opcode::kRcFetchAdd);
  tpls.postcard = crafter_.make_postcard_template(postcard_row, self_,
                                                  config_.primitives.postcards);
  primitive_tpls_[id] = std::move(tpls);
  if (prim_selector_) prim_selector_->add_member(id);
}

void DartSwitchPipeline::load_collector(const core::RemoteStoreInfo& info) {
  CollectorEntry entry;
  entry.mac = info.mac;
  entry.ip = info.ip.value;
  entry.qpn = info.qpn;
  entry.rkey = info.rkey;
  entry.base_vaddr = info.base_vaddr;
  entry.n_slots = info.n_slots;
  entry.slot_bytes = info.slot_bytes;
  entry.backend = info.backend;
  table_.insert(info.collector_id, entry);

  EgressTemplates tpls;
  if (info.backend == core::StoreBackendKind::kSketch) {
    // Sketch rows never see slot WRITEs — every report is a FETCH_ADD fan-
    // out over the rows' cells, so only the atomic template is built.
    tpls.fetch_add =
        crafter_.make_atomic_template(info, self_, rdma::Opcode::kRcFetchAdd);
  } else {
    tpls.write = crafter_.make_write_template(info, self_);
    if (config_.use_dta_multiwrite) {
      tpls.multiwrite = crafter_.make_multiwrite_template(info, self_);
    }
  }
  egress_tpls_[info.collector_id] = std::move(tpls);
  if (kv_selector_) kv_selector_->add_member(info.collector_id);
}

void DartSwitchPipeline::retarget_collector(std::uint32_t dead_id,
                                            const core::RemoteStoreInfo& backup) {
  // The row keeps the dead collector's id (the hash keeps producing it) but
  // carries the backup's endpoint, so load_collector does all the work —
  // including rebuilding the egress frame templates for the new destination.
  core::RemoteStoreInfo aliased = backup;
  aliased.collector_id = dead_id;
  load_collector(aliased);
  psn_regs_.write(dead_id, 0);  // reconnect ⇒ fresh PSN stream
  ++counters_.retargets;
}

void DartSwitchPipeline::restore_collector(const core::RemoteStoreInfo& info) {
  load_collector(info);
  psn_regs_.write(info.collector_id, 0);
  ++counters_.restores;
}

void DartSwitchPipeline::on_telemetry(
    std::span<const std::byte> key, std::span<const std::byte> value,
    std::vector<std::vector<std::byte>>& frames) {
  emit_telemetry(key, value, /*precomputed_id=*/-1, frames);
}

std::vector<std::vector<std::byte>> DartSwitchPipeline::on_telemetry(
    std::span<const std::byte> key, std::span<const std::byte> value) {
  std::vector<std::vector<std::byte>> frames;
  on_telemetry(key, value, frames);
  return frames;
}

std::vector<std::vector<std::byte>> DartSwitchPipeline::on_telemetry_batch(
    std::span<const TelemetryEvent> events) {
  std::vector<std::vector<std::byte>> frames;
  const std::uint32_t n_collectors = static_cast<std::uint32_t>(table_.size());

  constexpr std::size_t kLanes = 64;
  std::array<std::uint64_t, kLanes> key_lanes;
  std::array<std::uint32_t, kLanes> ids;
  std::size_t done = 0;
  while (done < events.size()) {
    const std::size_t m = std::min(kLanes, events.size() - done);
    // Batch-hash the chunk's collector ids when every key is the 8-byte
    // telemetry shape; odd-sized keys fall back to per-event hashing inside
    // emit_telemetry.
    bool keys8 = n_collectors != 0;
    for (std::size_t i = 0; keys8 && i < m; ++i) {
      keys8 = events[done + i].key.size() == 8;
    }
    if (keys8) {
      for (std::size_t i = 0; i < m; ++i) {
        std::memcpy(&key_lanes[i], events[done + i].key.data(), 8);
      }
      if (ring_mode()) {
        // Batched AVX2 hash + one ring-table snapshot for the whole chunk.
        kv_selector_->owners_of(
            reinterpret_cast<const std::byte*>(key_lanes.data()), 8, 8, m,
            ids.data());
      } else {
        hash_engine_.collector_ids(
            reinterpret_cast<const std::byte*>(key_lanes.data()), 8, 8, m,
            n_collectors, ids.data());
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      const TelemetryEvent& ev = events[done + i];
      emit_telemetry(ev.key, ev.value,
                     keys8 ? static_cast<std::int64_t>(ids[i]) : -1, frames);
    }
    done += m;
  }
  return frames;
}

void DartSwitchPipeline::emit_telemetry(
    std::span<const std::byte> key, std::span<const std::byte> value,
    std::int64_t precomputed_id, std::vector<std::vector<std::byte>>& frames) {
  ++counters_.telemetry_events;

  // Hash the key to its owning collector (same id regardless of n — all N
  // copies of a key live on one collector, §3.1). kModulo reduces over the
  // contiguous loaded-row count; kRing asks the consistent-hash selector,
  // which never picks a removed member.
  const std::uint32_t n_collectors = static_cast<std::uint32_t>(table_.size());
  if (n_collectors == 0) {
    ++counters_.table_misses;
    return;
  }
  const std::uint32_t collector_id =
      precomputed_id >= 0 ? static_cast<std::uint32_t>(precomputed_id)
      : ring_mode()       ? kv_selector_->owner_of(key)
                          : hash_engine_.collector_id(key, n_collectors);
  const auto entry = table_.lookup(collector_id);
  if (!entry) {
    ++counters_.table_misses;
    return;
  }

  // The deparser templates load_collector built alongside the row.
  const EgressTemplates& tpls = egress_tpls_.find(collector_id)->second;

  if (entry->backend == core::StoreBackendKind::kSketch) {
    // Sketch fan-out: one FETCH_ADD of 1 per sketch row, each consuming its
    // own PSN — a telemetry event on a sketch-backed collector is `rows`
    // wire ops, the aggregation itself happening in the collector's RNIC.
    for (std::uint32_t row = 0; row < sketch_geometry_.rows(); ++row) {
      auto& frame = frames.emplace_back(tpls.fetch_add.frame_size());
      const std::size_t len = crafter_.craft_sketch_increment_into(
          tpls.fetch_add, sketch_geometry_, key, row, /*delta=*/1,
          next_psn(collector_id), frame);
      (void)len;
      assert(len == frame.size());
      ++counters_.reports_emitted;
      ++counters_.sketch_increments_emitted;
    }
    return;
  }

  if (config_.use_dta_multiwrite) {
    auto& frame = frames.emplace_back(tpls.multiwrite.frame_size());
    const std::size_t len = crafter_.craft_multiwrite_into(
        tpls.multiwrite, key, value, next_psn(collector_id), frame);
    (void)len;
    assert(len == frame.size());
    ++counters_.reports_emitted;
    return;
  }

  const std::uint32_t n_addr = config_.dart.n_addresses;
  const bool all_slots = config_.write_mode == core::WriteMode::kAllSlots;
  const std::uint32_t emit_count = all_slots ? n_addr : 1;

  for (std::uint32_t i = 0; i < emit_count; ++i) {
    const std::uint32_t n = all_slots ? i : rng_.next(n_addr);
    auto& frame = frames.emplace_back(tpls.write.frame_size());
    const std::size_t len = crafter_.craft_write_into(
        tpls.write, key, value, n, next_psn(collector_id), frame);
    (void)len;
    assert(len == frame.size());
    ++counters_.reports_emitted;
  }
}

const DartSwitchPipeline::PrimitiveTemplates*
DartSwitchPipeline::primitive_templates_of(std::span<const std::byte> key,
                                           std::uint32_t& collector_id) {
  ++counters_.telemetry_events;
  const auto n = static_cast<std::uint32_t>(primitive_tpls_.size());
  if (n == 0) {
    ++counters_.table_misses;
    return nullptr;
  }
  collector_id = ring_mode() ? prim_selector_->owner_of(key)
                             : hash_engine_.collector_id(key, n);
  const auto it = primitive_tpls_.find(collector_id);
  if (it == primitive_tpls_.end()) {
    ++counters_.table_misses;
    return nullptr;
  }
  return &it->second;
}

std::vector<std::byte> DartSwitchPipeline::on_append_event(
    std::span<const std::byte> key, std::span<const std::byte> value) {
  std::uint32_t collector_id = 0;
  const PrimitiveTemplates* tpls = primitive_templates_of(key, collector_id);
  if (tpls == nullptr) return {};

  // Tail register bump: this report's 1-based sequence number. Consumed even
  // if the frame is later lost — the collector-side reader sees the hole.
  const std::uint64_t seq =
      append_tails_.rmw(collector_id, [](std::uint64_t old) { return old + 1; }) +
      1;
  std::vector<std::byte> frame(tpls->append.frame_size());
  const std::size_t len =
      crafter_.craft_append_into(tpls->append, config_.primitives.ring, seq,
                                 value, next_psn(collector_id), frame);
  (void)len;
  assert(len == frame.size());
  ++counters_.reports_emitted;
  ++counters_.appends_emitted;
  return frame;
}

std::vector<std::byte> DartSwitchPipeline::on_increment_event(
    std::span<const std::byte> key, std::uint64_t delta) {
  std::uint32_t collector_id = 0;
  const PrimitiveTemplates* tpls = primitive_templates_of(key, collector_id);
  if (tpls == nullptr) return {};

  std::vector<std::byte> frame(tpls->increment.frame_size());
  const std::size_t len = crafter_.craft_key_increment_into(
      tpls->increment, config_.primitives.counters, key, delta,
      next_psn(collector_id), frame);
  (void)len;
  assert(len == frame.size());
  ++counters_.reports_emitted;
  ++counters_.increments_emitted;
  return frame;
}

std::vector<std::byte> DartSwitchPipeline::on_postcard_event(
    std::span<const std::byte> flow_key, std::uint32_t hop,
    std::span<const std::byte> value) {
  std::uint32_t collector_id = 0;
  const PrimitiveTemplates* tpls =
      primitive_templates_of(flow_key, collector_id);
  if (tpls == nullptr) return {};

  std::vector<std::byte> frame(tpls->postcard.frame_size());
  const std::size_t len = crafter_.craft_postcard_into(
      tpls->postcard, config_.primitives.postcards, flow_key, hop, value,
      next_psn(collector_id), frame);
  (void)len;
  assert(len == frame.size());
  ++counters_.reports_emitted;
  ++counters_.postcards_emitted;
  return frame;
}

}  // namespace dart::switchsim
