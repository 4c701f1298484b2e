#include "core/primitives.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/hash.hpp"

namespace dart::core {

namespace {

// Salt keeps the group hash independent of the counter hash when both use
// the deployment master seed.
constexpr std::uint64_t kPostcardGroupSalt = 0x9057'CA2D'0000'0001ull;

std::uint64_t load_le64(const std::byte* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

std::uint64_t PostcardConfig::group_of(
    std::span<const std::byte> flow_key) const noexcept {
  return xxhash64(flow_key, seed ^ kPostcardGroupSalt) % n_groups;
}

std::uint32_t PostcardConfig::checksum_of(
    std::span<const std::byte> flow_key) const noexcept {
  // Same construction as HashFamily::checksum_of, so a postcard slot carries
  // the same kind of identity evidence as a DartStore slot.
  return crc32(flow_key) & checksum_mask(checksum_bits);
}

DtaPrimitivesConfig default_primitives(std::uint64_t master_seed) {
  DtaPrimitivesConfig cfg;
  cfg.counters.seed = master_seed;
  cfg.postcards.seed = master_seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// AppendRing
// ---------------------------------------------------------------------------

AppendRing::AppendRing(const AppendRingConfig& config)
    : config_(config),
      backing_(static_cast<std::size_t>(config.memory_bytes())) {
  assert(config_.valid());
}

AppendRing::AppendRing(const AppendRingConfig& config,
                       std::span<std::byte> memory)
    : config_(config), backing_(memory) {
  assert(config_.valid());
  assert(memory.size() == config.memory_bytes());
}

void AppendRing::encode_entry(std::uint64_t seq,
                              std::span<const std::byte> value,
                              std::vector<std::byte>& out) {
  // Entries are little-endian in memory, like the atomics word: the
  // collector reads its own DRAM natively.
  for (std::uint32_t i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((seq >> (8 * i)) & 0xFF));
  }
  out.insert(out.end(), value.begin(), value.end());
}

void AppendRing::write_entry(std::uint64_t seq,
                             std::span<const std::byte> value) {
  assert(seq != 0);
  assert(value.size() == config_.value_bytes);
  std::byte* entry = backing_.memory().data() +
                     config_.slot_of(seq) * config_.entry_bytes();
  std::memcpy(entry, &seq, 8);
  std::memcpy(entry + 8, value.data(), value.size());
}

std::uint64_t AppendRing::entry_seq(std::uint64_t slot) const noexcept {
  assert(slot < config_.n_entries);
  return load_le64(backing_.memory().data() + slot * config_.entry_bytes());
}

AppendRing::DrainResult AppendRing::drain(std::size_t max_entries) {
  // Collect the unread live set. Any slot's embedded seq below the cursor is
  // already-drained residue; the rest are unread, possibly with holes where
  // the writer lapped us or the network dropped a report.
  std::vector<std::uint64_t> unread;
  for (std::uint64_t slot = 0; slot < config_.n_entries; ++slot) {
    const std::uint64_t seq = entry_seq(slot);
    if (seq >= next_seq_) unread.push_back(seq);
  }
  std::sort(unread.begin(), unread.end());

  DrainResult out;
  for (const std::uint64_t seq : unread) {
    if (out.entries.size() >= max_entries) break;
    out.missed += seq - next_seq_;  // holes crossed to reach this entry
    next_seq_ = seq + 1;
    const std::byte* entry =
        backing_.memory().data() + config_.slot_of(seq) * config_.entry_bytes();
    Entry e;
    e.seq = seq;
    e.value.assign(entry + 8, entry + config_.entry_bytes());
    out.entries.push_back(std::move(e));
  }
  missed_ += out.missed;
  out.next_seq = next_seq_;
  return out;
}

// ---------------------------------------------------------------------------
// PostcardStore
// ---------------------------------------------------------------------------

PostcardStore::PostcardStore(const PostcardConfig& config)
    : config_(config),
      backing_(static_cast<std::size_t>(config.memory_bytes())) {
  assert(config_.valid());
}

PostcardStore::PostcardStore(const PostcardConfig& config,
                             std::span<std::byte> memory)
    : config_(config), backing_(memory) {
  assert(config_.valid());
  assert(memory.size() == config.memory_bytes());
}

void PostcardStore::encode_hop_payload(const PostcardConfig& config,
                                       std::span<const std::byte> flow_key,
                                       std::span<const std::byte> value,
                                       std::vector<std::byte>& out) {
  assert(value.size() == config.value_bytes);
  const std::uint32_t csum = config.checksum_of(flow_key);
  for (std::uint32_t i = 0; i < config.checksum_bytes(); ++i) {
    out.push_back(static_cast<std::byte>((csum >> (8 * i)) & 0xFF));
  }
  out.insert(out.end(), value.begin(), value.end());
}

void PostcardStore::write_hop(std::span<const std::byte> flow_key,
                              std::uint32_t hop,
                              std::span<const std::byte> value) {
  assert(hop < config_.max_hops);
  assert(value.size() == config_.value_bytes);
  std::vector<std::byte> payload;
  payload.reserve(config_.slot_bytes());
  encode_hop_payload(config_, flow_key, value, payload);
  const std::uint64_t index =
      config_.slot_index(config_.group_of(flow_key), hop);
  std::memcpy(backing_.memory().data() + index * config_.slot_bytes(),
              payload.data(), payload.size());
}

PostcardStore::GroupView PostcardStore::read_group(
    std::span<const std::byte> flow_key) const {
  GroupView view;
  view.group = config_.group_of(flow_key);
  const std::uint32_t want = config_.checksum_of(flow_key);
  view.hops.reserve(config_.max_hops);
  for (std::uint32_t hop = 0; hop < config_.max_hops; ++hop) {
    const std::byte* slot =
        backing_.memory().data() +
        config_.slot_index(view.group, hop) * config_.slot_bytes();
    std::uint32_t got = 0;
    for (std::uint32_t i = 0; i < config_.checksum_bytes(); ++i) {
      got |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(slot[i]))
             << (8 * i);
    }
    got &= checksum_mask(config_.checksum_bits);
    if (got == want && want != 0) view.valid_mask |= 1u << hop;
    view.hops.emplace_back(slot + config_.checksum_bytes(),
                           slot + config_.slot_bytes());
  }
  return view;
}

}  // namespace dart::core
