#include "check/reference.hpp"

#include <cstring>

#include "core/oracle.hpp"
#include "rdma/roce.hpp"

namespace dart::check {

// ---------------------------------------------------------------------------
// reference_resolve — policy spec, re-derived from scratch
// ---------------------------------------------------------------------------

namespace {

struct Tally {
  std::span<const std::byte> value;
  std::uint32_t count = 0;
};

bool same_bytes(std::span<const std::byte> a, std::span<const std::byte> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

}  // namespace

core::QueryResult reference_resolve(std::span<const core::SlotView> slots,
                                    std::uint32_t want,
                                    core::ReturnPolicy policy) {
  core::QueryResult out;

  // Survivors of the checksum filter, tallied in first-seen order.
  std::vector<Tally> tallies;
  for (const auto& slot : slots) {
    if (slot.checksum != want) continue;
    ++out.checksum_matches;
    auto it = tallies.begin();
    while (it != tallies.end() && !same_bytes(it->value, slot.value)) ++it;
    if (it == tallies.end()) {
      tallies.push_back(Tally{slot.value, 1});
    } else {
      ++it->count;
    }
  }
  out.distinct_values = static_cast<std::uint32_t>(tallies.size());
  if (tallies.empty()) return out;

  // Winner by count; `unique` = no other tally ties the winner.
  std::size_t best = 0;
  for (std::size_t i = 1; i < tallies.size(); ++i) {
    if (tallies[i].count > tallies[best].count) best = i;
  }
  std::uint32_t at_top = 0;
  for (const auto& t : tallies) at_top += t.count == tallies[best].count;
  const bool unique = at_top == 1;

  bool commit = false;
  switch (policy) {
    case core::ReturnPolicy::kFirstMatch:
      best = 0;  // first surviving slot's value, regardless of counts
      commit = true;
      break;
    case core::ReturnPolicy::kSingleDistinct:
      commit = tallies.size() == 1;
      best = 0;
      break;
    case core::ReturnPolicy::kPlurality:
      commit = unique;
      break;
    case core::ReturnPolicy::kConsensusTwo:
      commit = unique && tallies[best].count >= 2;
      break;
  }
  if (commit) {
    out.outcome = core::QueryOutcome::kFound;
    out.value.assign(tallies[best].value.begin(), tallies[best].value.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// ReferenceFabric
// ---------------------------------------------------------------------------

void ReferenceFabric::enable_primitives(
    const core::DtaPrimitivesConfig& config) {
  ring_ = std::make_unique<core::AppendRing>(config.ring);
  counters_ = std::make_unique<core::CellSheet>(config.counters.geometry());
  postcards_ = std::make_unique<core::PostcardStore>(config.postcards);
}

void ReferenceFabric::apply(const ReportOp& op) {
  // The append tail is a switch register: it advances when the frame is
  // EMITTED, so a report the network then loses leaves a sequence hole.
  if (op.kind == ReportOp::Kind::kAppend) ++append_tail_;
  if (op.dropped) return;  // a lost report has no other effect anywhere
  const auto key = core::sim_key(op.key);
  switch (op.kind) {
    case ReportOp::Kind::kWrite:
      store_.write_one(key, op.value, op.copy);
      break;
    case ReportOp::Kind::kMultiwrite:
      store_.write(key, op.value);
      break;
    case ReportOp::Kind::kFetchAdd: {
      auto mem = store_.memory();
      std::uint64_t prior;
      std::memcpy(&prior, mem.data() + op.word_index * 8, 8);
      const std::uint64_t next = prior + op.operand;
      std::memcpy(mem.data() + op.word_index * 8, &next, 8);
      break;
    }
    case ReportOp::Kind::kCompareSwap: {
      auto mem = store_.memory();
      std::uint64_t prior;
      std::memcpy(&prior, mem.data() + op.word_index * 8, 8);
      if (prior == op.compare) {
        std::memcpy(mem.data() + op.word_index * 8, &op.operand, 8);
      } else {
        ++cas_mismatches_;
      }
      break;
    }
    case ReportOp::Kind::kAppend:
      ring_->write_entry(append_tail_, op.value);
      break;
    case ReportOp::Kind::kKeyIncrement:
      (void)counters_->fetch_add(key, op.operand);
      break;
    case ReportOp::Kind::kPostcard:
      postcards_->write_hop(key, op.hop, op.value);
      break;
  }
  ++applied_;
}

core::QueryResult ReferenceFabric::resolve(std::span<const std::byte> key,
                                           core::ReturnPolicy policy) const {
  const auto slots = store_.read_slots(key);
  return reference_resolve(slots, store_.key_checksum(key), policy);
}

std::uint64_t ReferenceFabric::word(std::uint64_t index) const noexcept {
  std::uint64_t v = 0;
  const auto mem = store_.memory();
  if ((index + 1) * 8 <= mem.size()) {
    std::memcpy(&v, mem.data() + index * 8, 8);
  }
  return v;
}

// ---------------------------------------------------------------------------
// WireDriver
// ---------------------------------------------------------------------------

namespace {

core::CollectorEndpoint driver_endpoint() {
  core::CollectorEndpoint ep;
  ep.mac = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
  ep.ip = net::Ipv4Addr::from_octets(10, 0, 100, 1);
  return ep;
}

core::ReporterEndpoint driver_reporter() {
  core::ReporterEndpoint src;
  src.mac = {0xAA, 0xBB, 0xCC, 0x00, 0x00, 0x01};
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  return src;
}

}  // namespace

WireDriver::WireDriver(const core::DartConfig& config)
    : collector_(config, /*collector_id=*/0, driver_endpoint()),
      crafter_(config),
      reference_(config),
      src_(driver_reporter()),
      dst_(collector_.remote_info()) {
  collector_.rnic().set_dta_multiwrite(true);
  write_tpl_ = crafter_.make_write_template(dst_, src_);
  fetch_add_tpl_ =
      crafter_.make_atomic_template(dst_, src_, rdma::Opcode::kRcFetchAdd);
  compare_swap_tpl_ =
      crafter_.make_atomic_template(dst_, src_, rdma::Opcode::kRcCompareSwap);
  multiwrite_tpl_ = crafter_.make_multiwrite_template(dst_, src_);
}

void WireDriver::enable_primitives(const core::DtaPrimitivesConfig& config) {
  const auto status = collector_.enable_primitives(config);
  (void)status;  // valid configs only; gen_small_primitives guarantees it
  primitives_ = config;
  ring_dst_ = collector_.remote_ring_info();
  counter_dst_ = collector_.remote_counter_info();
  postcard_dst_ = collector_.remote_postcard_info();
  append_tpl_ = crafter_.make_append_template(ring_dst_, src_, config.ring);
  key_increment_tpl_ =
      crafter_.make_atomic_template(counter_dst_, src_, rdma::Opcode::kRcFetchAdd);
  postcard_tpl_ =
      crafter_.make_postcard_template(postcard_dst_, src_, config.postcards);
}

std::vector<std::byte> WireDriver::submit(const ReportOp& op) {
  const std::uint32_t psn = psn_++;
  const auto key = core::sim_key(op.key);
  // Even PSNs exercise the production template path, odd PSNs the
  // field-by-field ReferenceCrafter — the two must be byte-identical, so the
  // differential store check covers both for free.
  const bool use_template = (psn & 1) == 0;

  std::vector<std::byte> frame;
  const auto from_template = [&](const core::FrameTemplate& tpl, auto craft) {
    frame.resize(tpl.frame_size());
    const auto n = craft(tpl);
    frame.resize(n);  // 0 on misuse; submit() never misuses
  };

  switch (op.kind) {
    case ReportOp::Kind::kWrite:
      if (use_template) {
        from_template(write_tpl_, [&](const core::FrameTemplate& tpl) {
          return crafter_.craft_write_into(tpl, key, op.value, op.copy, psn,
                                           frame);
        });
      } else {
        frame = reference_.craft_write(dst_, src_, key, op.value, op.copy, psn);
      }
      break;
    case ReportOp::Kind::kMultiwrite:
      if (use_template) {
        from_template(multiwrite_tpl_, [&](const core::FrameTemplate& tpl) {
          return crafter_.craft_multiwrite_into(tpl, key, op.value, psn,
                                                frame);
        });
      } else {
        frame = reference_.craft_multiwrite(dst_, src_, key, op.value, psn);
      }
      break;
    case ReportOp::Kind::kFetchAdd: {
      const auto vaddr = dst_.base_vaddr + op.word_index * 8;
      if (use_template) {
        from_template(fetch_add_tpl_, [&](const core::FrameTemplate& tpl) {
          return crafter_.craft_fetch_add_into(tpl, vaddr, op.operand, psn,
                                               frame);
        });
      } else {
        frame = reference_.craft_fetch_add(dst_, src_, vaddr, op.operand, psn);
      }
      break;
    }
    case ReportOp::Kind::kCompareSwap: {
      const auto vaddr = dst_.base_vaddr + op.word_index * 8;
      if (use_template) {
        from_template(compare_swap_tpl_, [&](const core::FrameTemplate& tpl) {
          return crafter_.craft_compare_swap_into(tpl, vaddr, op.compare,
                                                  op.operand, psn, frame);
        });
      } else {
        frame = reference_.craft_compare_swap(dst_, src_, vaddr, op.compare,
                                              op.operand, psn);
      }
      break;
    }
    case ReportOp::Kind::kAppend: {
      const std::uint64_t seq = ++append_tail_;  // consumed even if dropped
      if (use_template) {
        from_template(append_tpl_, [&](const core::FrameTemplate& tpl) {
          return crafter_.craft_append_into(tpl, primitives_.ring, seq,
                                            op.value, psn, frame);
        });
      } else {
        frame = reference_.craft_append(ring_dst_, src_, primitives_.ring,
                                        seq, op.value, psn);
      }
      break;
    }
    case ReportOp::Kind::kKeyIncrement:
      if (use_template) {
        from_template(key_increment_tpl_, [&](const core::FrameTemplate& tpl) {
          return crafter_.craft_key_increment_into(
              tpl, primitives_.counters, key, op.operand, psn, frame);
        });
      } else {
        frame = reference_.craft_key_increment(counter_dst_, src_,
                                               primitives_.counters, key,
                                               op.operand, psn);
      }
      break;
    case ReportOp::Kind::kPostcard:
      if (use_template) {
        from_template(postcard_tpl_, [&](const core::FrameTemplate& tpl) {
          return crafter_.craft_postcard_into(tpl, primitives_.postcards, key,
                                              op.hop, op.value, psn, frame);
        });
      } else {
        frame = reference_.craft_postcard(postcard_dst_, src_,
                                          primitives_.postcards, key, op.hop,
                                          op.value, psn);
      }
      break;
  }

  if (!op.dropped) {
    collector_.rnic().process_frame(frame);
  }
  return frame;
}

}  // namespace dart::check
