#include "check/golden.hpp"

#include <array>
#include <cctype>
#include <cstring>
#include <fstream>

#include "check/reference_crafter.hpp"
#include "check/reference_headers.hpp"
#include "check/reference_roce.hpp"
#include "core/collector.hpp"
#include "core/collector_ring.hpp"
#include "core/config.hpp"
#include "core/oracle.hpp"
#include "core/primitives.hpp"
#include "core/query_protocol.hpp"
#include "rdma/multiwrite.hpp"
#include "rdma/roce.hpp"

namespace dart::check {

std::string to_hex(std::span<const std::byte> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (const auto b : data) {
    const auto v = static_cast<std::uint8_t>(b);
    out.push_back(kDigits[v >> 4]);
    out.push_back(kDigits[v & 0xF]);
  }
  return out;
}

std::optional<std::vector<std::byte>> from_hex(std::string_view text) {
  std::vector<std::byte> out;
  int hi = -1;
  for (const char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (hi >= 0) return std::nullopt;  // split pair
      continue;
    }
    int v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    if (hi < 0) {
      hi = v;
    } else {
      out.push_back(static_cast<std::byte>((hi << 4) | v));
      hi = -1;
    }
  }
  if (hi >= 0) return std::nullopt;  // odd digit count
  return out;
}

bool write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "# trace: " << trace.name << "\n";
  for (const auto& note : trace.notes) out << "# " << note << "\n";
  for (const auto& artifact : trace.artifacts) {
    out << to_hex(artifact) << "\n";
  }
  return static_cast<bool>(out);
}

std::optional<Trace> read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Trace trace;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::string note = line.substr(1);
      if (!note.empty() && note.front() == ' ') note.erase(0, 1);
      if (note.rfind("trace: ", 0) == 0) {
        trace.name = note.substr(7);
      } else {
        trace.notes.push_back(note);
      }
      continue;
    }
    auto bytes = from_hex(line);
    if (!bytes.has_value()) return std::nullopt;
    trace.artifacts.push_back(std::move(*bytes));
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Canonical artifacts
// ---------------------------------------------------------------------------

// A real Collector supplies the RemoteStoreInfo so qpn/rkey/base_vaddr are
// exactly what the replay-side Collector (same constructor arguments, same
// deterministic rkey derivation) will accept.
GoldenDeployment golden_deployment() {
  GoldenDeployment dep;
  dep.config.n_slots = 1 << 10;
  dep.config.n_addresses = 2;
  dep.config.checksum_bits = 32;
  dep.config.value_bytes = 8;
  dep.config.master_seed = 0xDA27'601Dull;  // fixed forever (see golden.hpp)
  dep.collector_endpoint.mac = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
  dep.collector_endpoint.ip = net::Ipv4Addr::from_octets(10, 0, 100, 1);
  dep.reporter.mac = {0xAA, 0xBB, 0xCC, 0x00, 0x00, 0x01};
  dep.reporter.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  return dep;
}

std::vector<std::byte> golden_value(std::uint64_t k, std::uint32_t bytes) {
  std::vector<std::byte> v(bytes);
  for (std::uint32_t j = 0; j < bytes; ++j) {
    v[j] = static_cast<std::byte>((k * 16 + j) & 0xFF);
  }
  return v;
}

std::vector<Trace> canonical_golden_traces() {
  const auto dep = golden_deployment();
  const auto& cfg = dep.config;
  core::Collector collector(cfg, 0, dep.collector_endpoint);
  const auto dst = collector.remote_info();
  const ReferenceCrafter crafter(cfg);

  std::vector<Trace> traces;

  {
    Trace t;
    t.name = "write_reports";
    t.notes = {"RoCEv2 WRITE ONLY reports, keys sim_key(1..6), copies 0..1,",
               "sequential PSNs, then key sim_key(7) across the 24-bit PSN",
               "wrap edge (0xfffffe, 0xffffff, 0x000000): collector QPs run",
               "PsnPolicy::kIgnore, so all three execute — reporters never",
               "retransmit and the store is last-writer-wins (paper §3.1)."};
    std::uint32_t psn = 0;
    for (std::uint64_t k = 1; k <= 6; ++k) {
      const auto key = core::sim_key(k);
      const auto value = golden_value(k, cfg.value_bytes);
      for (std::uint32_t n = 0; n < cfg.n_addresses; ++n) {
        t.artifacts.push_back(
            crafter.craft_write(dst, dep.reporter, key, value, n, psn++));
      }
    }
    for (const std::uint32_t wrap : {0xFFFFFEu, 0xFFFFFFu, 0x000000u}) {
      const auto key = core::sim_key(7);
      t.artifacts.push_back(crafter.craft_write(
          dst, dep.reporter, key, golden_value(7, cfg.value_bytes), 0, wrap));
    }
    traces.push_back(std::move(t));
  }

  {
    Trace t;
    t.name = "atomic_reports";
    t.notes = {"FETCH_ADD then COMPARE_SWAP on 8-aligned store words;",
               "operands are fixed patterns."};
    std::uint32_t psn = 0;
    for (const std::uint64_t word : {0ull, 5ull, 100ull}) {
      t.artifacts.push_back(crafter.craft_fetch_add(
          dst, dep.reporter, dst.base_vaddr + word * 8,
          0x0101'0000'0000'0000ull + word, psn++));
    }
    for (const std::uint64_t word : {1ull, 7ull}) {
      t.artifacts.push_back(crafter.craft_compare_swap(
          dst, dep.reporter, dst.base_vaddr + word * 8, /*compare=*/0,
          /*swap=*/0xC0DE'0000'0000'0000ull + word, psn++));
    }
    traces.push_back(std::move(t));
  }

  {
    Trace t;
    t.name = "multiwrite_reports";
    t.notes = {"§7 DTA multiwrite frames (UDP/4793): one frame fills all N",
               "slots of a key."};
    for (std::uint64_t k = 1; k <= 4; ++k) {
      t.artifacts.push_back(crafter.craft_multiwrite(
          dst, dep.reporter, core::sim_key(k), golden_value(k, cfg.value_bytes),
          static_cast<std::uint32_t>(k - 1)));
    }
    traces.push_back(std::move(t));
  }

  {
    Trace t;
    t.name = "query_wire";
    t.notes = {"v2 operator query protocol payloads (no L2-L4 headers):",
               "requests across policies/epochs, then responses: found,",
               "empty, degraded+stale."};
    std::uint64_t id = 1;
    for (const auto policy :
         {core::ReturnPolicy::kFirstMatch, core::ReturnPolicy::kSingleDistinct,
          core::ReturnPolicy::kPlurality, core::ReturnPolicy::kConsensusTwo}) {
      core::QueryRequest req;
      req.request_id = id;
      req.epoch = static_cast<std::uint32_t>(0xE0000 + id);
      req.policy = policy;
      const auto key = core::sim_key(id);
      req.key.assign(key.begin(), key.end());
      t.artifacts.push_back(core::encode_query_request(req));
      ++id;
    }
    core::QueryResponse found;
    found.request_id = 1;
    found.epoch = 0xE0001;
    found.outcome = core::QueryOutcome::kFound;
    found.checksum_matches = 2;
    found.distinct_values = 1;
    found.value = golden_value(1, cfg.value_bytes);
    t.artifacts.push_back(core::encode_query_response(found));

    core::QueryResponse empty;
    empty.request_id = 2;
    empty.epoch = 0xE0002;
    t.artifacts.push_back(core::encode_query_response(empty));

    core::QueryResponse degraded = found;
    degraded.request_id = 3;
    degraded.epoch = 0xE0003;
    degraded.flags = core::kResponseDegraded;
    degraded.stale_epochs = 2;
    t.artifacts.push_back(core::encode_query_response(degraded));
    traces.push_back(std::move(t));
  }

  // DTA translator primitives: region rows come from a golden-deployment
  // collector with primitives enabled (same deterministic rkey/vaddr
  // derivation the replay side reproduces).
  const auto prim = core::default_primitives(cfg.master_seed);
  {
    const auto enabled = collector.enable_primitives(prim);
    (void)enabled;  // default geometry is always valid
  }

  {
    Trace t;
    t.name = "append_reports";
    t.notes = {"DTA Append frames into the golden ring (1024 entries):",
               "seqs 1..4 with golden values, then seq 1025 — the first",
               "wrap-around, landing on slot 0 and overwriting seq 1."};
    const auto dst_ring = collector.remote_ring_info();
    std::uint32_t psn = 0;
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
      t.artifacts.push_back(
          crafter.craft_append(dst_ring, dep.reporter, prim.ring, seq,
                               golden_value(seq, prim.ring.value_bytes), psn++));
    }
    t.artifacts.push_back(crafter.craft_append(
        dst_ring, dep.reporter, prim.ring, 1025,
        golden_value(9, prim.ring.value_bytes), psn++));
    traces.push_back(std::move(t));
  }

  {
    Trace t;
    t.name = "key_increment_reports";
    t.notes = {"DTA Key-Increment frames: FETCH_ADD on the counter cell of",
               "sim_key(1..3), deltas 0x10101 * k."};
    const auto dst_ctr = collector.remote_counter_info();
    std::uint32_t psn = 0;
    for (std::uint64_t k = 1; k <= 3; ++k) {
      t.artifacts.push_back(crafter.craft_key_increment(
          dst_ctr, dep.reporter, prim.counters, core::sim_key(k),
          0x10101ull * k, psn++));
    }
    traces.push_back(std::move(t));
  }

  {
    Trace t;
    t.name = "sketch_increment_reports";
    t.notes = {"Sketch fan-out frames: FETCH_ADD on every row's cell of",
               "sim_key(1..3) in a sketch-backed golden collector (the",
               "default 4 x 2048 count-min sheet), deltas 0x10101 * k,",
               "sequential PSNs key-major."};
    const core::StoreBackendConfig choice{core::StoreBackendKind::kSketch, {}};
    core::Collector sketch_collector(cfg, 0, dep.collector_endpoint, choice);
    const auto dst_sketch = sketch_collector.remote_info();
    std::uint32_t psn = 0;
    for (std::uint64_t k = 1; k <= 3; ++k) {
      for (std::uint32_t row = 0; row < choice.sketch.rows; ++row) {
        t.artifacts.push_back(crafter.craft_sketch_increment(
            dst_sketch, dep.reporter, choice.sketch, core::sim_key(k), row,
            0x10101ull * k, psn++));
      }
    }
    traces.push_back(std::move(t));
  }

  {
    Trace t;
    t.name = "postcard_reports";
    t.notes = {"DTA Postcarding frames: flows sim_key(1..2), hops 0..2 each",
               "(a partial group — golden max_hops is 8), golden values",
               "indexed flow*8+hop."};
    const auto dst_pc = collector.remote_postcard_info();
    std::uint32_t psn = 0;
    for (std::uint64_t flow = 1; flow <= 2; ++flow) {
      for (std::uint32_t hop = 0; hop < 3; ++hop) {
        t.artifacts.push_back(crafter.craft_postcard(
            dst_pc, dep.reporter, prim.postcards, core::sim_key(flow), hop,
            golden_value(flow * 8 + hop, prim.postcards.value_bytes), psn++));
      }
    }
    traces.push_back(std::move(t));
  }

  {
    Trace t;
    t.name = "primitive_query_wire";
    t.notes = {"primitive query protocol v1 payloads (no L2-L4 headers):",
               "drain/read-counter/read-postcard-group requests, then",
               "responses: a 2-entry drain with holes, a counter cell, a",
               "partial postcard group, and a primitives-unavailable error."};
    core::PrimitiveRequest drain;
    drain.op = core::PrimitiveOp::kDrainRing;
    drain.request_id = 1;
    drain.epoch = 0xE1001;
    drain.max_entries = 16;
    t.artifacts.push_back(core::encode_primitive_request(drain));

    core::PrimitiveRequest counter;
    counter.op = core::PrimitiveOp::kReadCounter;
    counter.request_id = 2;
    counter.epoch = 0xE1002;
    const auto ckey = core::sim_key(2);
    counter.key.assign(ckey.begin(), ckey.end());
    t.artifacts.push_back(core::encode_primitive_request(counter));

    core::PrimitiveRequest group;
    group.op = core::PrimitiveOp::kReadPostcardGroup;
    group.request_id = 3;
    group.epoch = 0xE1003;
    const auto gkey = core::sim_key(3);
    group.key.assign(gkey.begin(), gkey.end());
    t.artifacts.push_back(core::encode_primitive_request(group));

    core::PrimitiveResponse drained;
    drained.op = core::PrimitiveOp::kDrainRing;
    drained.request_id = 1;
    drained.epoch = 0xE1001;
    drained.missed = 3;
    drained.next_seq = 7;
    drained.entry_value_bytes =
        static_cast<std::uint16_t>(prim.ring.value_bytes);
    for (const std::uint64_t seq : {4ull, 6ull}) {
      drained.entries.push_back(core::RingEntryWire{
          seq, golden_value(seq, prim.ring.value_bytes)});
    }
    t.artifacts.push_back(core::encode_primitive_response(drained));

    core::PrimitiveResponse cell;
    cell.op = core::PrimitiveOp::kReadCounter;
    cell.request_id = 2;
    cell.epoch = 0xE1002;
    cell.cell_index = prim.counters.index_of(ckey);
    cell.counter_value = 0x20202;
    t.artifacts.push_back(core::encode_primitive_response(cell));

    core::PrimitiveResponse path;
    path.op = core::PrimitiveOp::kReadPostcardGroup;
    path.request_id = 3;
    path.epoch = 0xE1003;
    path.group_index = prim.postcards.group_of(gkey);
    path.max_hops = static_cast<std::uint8_t>(prim.postcards.max_hops);
    path.valid_mask = 0b101;  // hops 0 and 2 reported
    path.hop_value_bytes =
        static_cast<std::uint16_t>(prim.postcards.value_bytes);
    for (std::uint32_t h = 0; h < prim.postcards.max_hops; ++h) {
      path.hops.push_back((path.valid_mask >> h & 1) != 0
                              ? golden_value(24 + h, prim.postcards.value_bytes)
                              : std::vector<std::byte>(prim.postcards.value_bytes));
    }
    t.artifacts.push_back(core::encode_primitive_response(path));

    core::PrimitiveResponse unavailable;
    unavailable.op = core::PrimitiveOp::kDrainRing;
    unavailable.request_id = 4;
    unavailable.epoch = 0xE1004;
    unavailable.flags = core::kResponsePrimitiveUnavailable;
    t.artifacts.push_back(core::encode_primitive_response(unavailable));
    traces.push_back(std::move(t));
  }

  {
    Trace t;
    t.name = "cht_ring16";
    t.notes = {"consistent-hash collector ring, capacity 16, 64 buckets per",
               "member, seed = the golden master seed. Artifact 0: the full-",
               "membership owner table (one little-endian u32 per bucket);",
               "artifact 1: the table after remove_member(5) — minimal",
               "movement pins that ONLY buckets owned by 5 changed; artifact",
               "2: the table after re-admitting 5, byte-identical to",
               "artifact 0 (the failback-restores-exactly contract)."};
    core::CollectorRingConfig rc;
    rc.capacity = 16;
    rc.height_per_member = 64;
    rc.seed = cfg.master_seed;
    core::CollectorRing ring(rc);
    const auto table_bytes = [](const core::CollectorRing& r) {
      const auto table = r.owner_table();
      std::vector<std::byte> out(table.size() * 4);
      for (std::size_t b = 0; b < table.size(); ++b) {
        out[b * 4 + 0] = static_cast<std::byte>(table[b] & 0xFF);
        out[b * 4 + 1] = static_cast<std::byte>((table[b] >> 8) & 0xFF);
        out[b * 4 + 2] = static_cast<std::byte>((table[b] >> 16) & 0xFF);
        out[b * 4 + 3] = static_cast<std::byte>((table[b] >> 24) & 0xFF);
      }
      return out;
    };
    t.artifacts.push_back(table_bytes(ring));
    ring.remove_member(5);
    t.artifacts.push_back(table_bytes(ring));
    ring.add_member(5);
    t.artifacts.push_back(table_bytes(ring));
    traces.push_back(std::move(t));
  }

  return traces;
}

std::vector<Trace> canonical_corpus() {
  const auto dep = golden_deployment();
  const auto& cfg = dep.config;
  core::Collector collector(cfg, 0, dep.collector_endpoint);
  const auto dst = collector.remote_info();
  const ReferenceCrafter crafter(cfg);

  const auto key = core::sim_key(42);
  const auto value = golden_value(42, cfg.value_bytes);
  const auto pristine = crafter.craft_write(dst, dep.reporter, key, value, 0, 0);

  std::vector<Trace> corpus;
  const auto add = [&corpus](const char* name, const char* why,
                             std::vector<std::byte> frame) {
    Trace t;
    t.name = name;
    t.notes = {why};
    t.artifacts.push_back(std::move(frame));
    corpus.push_back(std::move(t));
  };

  {  // Frame truncated mid-RETH: UDP length no longer matches the bytes.
    auto f = pristine;
    f.resize(f.size() - 12);
    add("truncated_write",
        "WRITE frame truncated mid-payload; L3/L4 length checks must refuse "
        "it before any RoCE parsing",
        std::move(f));
  }
  {  // Valid frame, iCRC flipped — the corruption iCRC exists to catch.
    auto f = pristine;
    f.back() ^= std::byte{0xFF};
    add("bad_icrc_write",
        "last iCRC byte flipped; must be counted bad_icrc, memory untouched",
        std::move(f));
  }
  {  // Unknown BTH opcode under a VALID iCRC: the opcode check itself.
    auto f = pristine;
    f[net::kEthernetHeaderLen + net::kIpv4HeaderLen + net::kUdpHeaderLen] =
        std::byte{0x7F};  // reserved opcode, no transport class
    const bool ok = reference_finalize_frame_icrc(f);
    (void)ok;  // frame shape is the crafter's own, finalize cannot fail
    add("bad_opcode",
        "BTH opcode rewritten to reserved 0x7f with the iCRC re-finalized; "
        "must be counted bad_opcode, not bad_icrc",
        std::move(f));
  }
  {  // Unknown destination QP.
    auto alt = dst;
    alt.qpn = 0x00BEEF;
    add("unknown_qp", "well-formed WRITE to a QPN the RNIC never created",
        crafter.craft_write(alt, dep.reporter, key, value, 0, 0));
  }
  {  // rkey no MR owns.
    auto alt = dst;
    alt.rkey ^= 0x5A5A'5A5A;
    add("bad_rkey", "WRITE under an rkey no memory region owns",
        crafter.craft_write(alt, dep.reporter, key, value, 0, 0));
  }
  {  // WRITE past the end of the registered region.
    auto alt = dst;
    alt.base_vaddr += cfg.memory_bytes();
    add("oob_write", "WRITE targeting one slot past the registered region",
        crafter.craft_write(alt, dep.reporter, key, value, 0, 0));
  }
  {  // Atomic on a non-8-aligned vaddr.
    add("unaligned_atomic",
        "FETCH_ADD at base+1: atomics must be naturally aligned",
        crafter.craft_fetch_add(dst, dep.reporter, dst.base_vaddr + 1, 1, 0));
  }
  {  // Multiwrite with a truncated DTA payload: trailer CRC cannot match.
    std::vector<std::uint64_t> vaddrs = {dst.base_vaddr, dst.base_vaddr + 24};
    auto dta = rdma::encode_multiwrite(dst.rkey, 0, vaddrs,
                                       std::span<const std::byte>(
                                           value.data(), value.size()));
    dta.resize(dta.size() - 6);  // chop into the vaddr list + CRC
    net::UdpFrameSpec spec;
    spec.src_mac = dep.reporter.mac;
    spec.dst_mac = dst.mac;
    spec.src_ip = dep.reporter.ip;
    spec.dst_ip = dst.ip;
    spec.src_port = dep.reporter.udp_src_port;
    spec.dst_port = rdma::kDtaUdpPort;
    add("truncated_multiwrite",
        "DTA multiwrite chopped mid-address-list (UDP lengths consistent); "
        "the trailer CRC check must refuse it",
        net::build_udp_frame(spec, dta));
  }
  {  // IPv4 header checksum damaged on an otherwise valid report.
    auto f = pristine;
    f[net::kEthernetHeaderLen + 10] ^= std::byte{0x40};  // checksum hi byte
    add("bad_ip_checksum",
        "IPv4 header checksum flipped; the frame dies at L3 (not_roce)",
        std::move(f));
  }

  constexpr std::size_t kIp = net::kEthernetHeaderLen;
  const auto refresh_ip_checksum = [](std::vector<std::byte>& f,
                                      std::size_t header_len) {
    f[kIp + 10] = f[kIp + 11] = std::byte{0};
    const std::uint16_t sum = reference_internet_checksum(
        std::span(f).subspan(kIp, header_len));
    f[kIp + 10] = static_cast<std::byte>(sum >> 8);
    f[kIp + 11] = static_cast<std::byte>(sum & 0xFF);
  };
  const auto spec_4791 = [&] {
    net::UdpFrameSpec spec;
    spec.src_mac = dep.reporter.mac;
    spec.dst_mac = dst.mac;
    spec.src_ip = dep.reporter.ip;
    spec.dst_ip = dst.ip;
    spec.src_port = dep.reporter.udp_src_port;
    spec.dst_port = net::kRoceV2UdpPort;
    return spec;
  };
  {  // A RoCEv2 datagram with no room for BTH + iCRC.
    const auto* bth = pristine.data() + net::kUdpFrameHeaderLen;
    add("runt_roce",
        "UDP datagram to 4791 carrying only the report's 12-byte BTH, no "
        "room for the iCRC; counted bad_icrc while the iCRC is checked",
        net::build_udp_frame(spec_4791(), std::span(bth, rdma::kBthLen)));
  }
  {  // A RoCEv2 datagram carrying only a BTH, under a valid iCRC.
    auto f = net::build_udp_frame(
        spec_4791(),
        std::span(pristine.data() + net::kUdpFrameHeaderLen,
                  rdma::kBthLen + rdma::kIcrcLen));
    const bool ok = reference_finalize_frame_icrc(f);
    (void)ok;  // a BTH plus its iCRC slot always places the iCRC
    add("bth_only_roce",
        "UDP datagram to 4791 carrying the report's BTH and a valid iCRC "
        "but no RETH; the iCRC passes with nothing after the BTH, and the "
        "request parse refuses it (bad_opcode)",
        std::move(f));
  }
  {  // IHL 6: four option bytes (NOP) after the IPv4 header.
    auto f = pristine;
    const std::array<std::byte, 4> nops = {std::byte{1}, std::byte{1},
                                           std::byte{1}, std::byte{1}};
    f.insert(f.begin() + kIp + net::kIpv4HeaderLen, nops.begin(), nops.end());
    f[kIp] = std::byte{0x46};
    const std::uint16_t total = static_cast<std::uint16_t>(
        ((std::to_integer<unsigned>(f[kIp + 2]) << 8) |
         std::to_integer<unsigned>(f[kIp + 3])) + nops.size());
    f[kIp + 2] = static_cast<std::byte>(total >> 8);
    f[kIp + 3] = static_cast<std::byte>(total & 0xFF);
    refresh_ip_checksum(f, net::kIpv4HeaderLen + nops.size());
    add("ipv4_options",
        "IPv4 header with IHL 6 (four NOP option bytes) and a valid "
        "checksum; only options-free IPv4 is parsed (not_roce)",
        std::move(f));
  }
  {  // An IP protocol that carries no 8-byte L4 header here.
    auto f = pristine;
    f[kIp + 9] = std::byte{47};  // GRE
    refresh_ip_checksum(f, net::kIpv4HeaderLen);
    add("ip_protocol_gre",
        "IPv4 protocol 47 (GRE) with a valid checksum; only UDP and TCP "
        "are parsed (not_roce)",
        std::move(f));
  }

  return corpus;
}

}  // namespace dart::check
