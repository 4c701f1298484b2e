// Golden wire traces and the seed regression corpus.
//
// A golden trace is a named list of wire artifacts (full Ethernet frames or
// bare protocol payloads) produced by the reference serializers
// (check::ReferenceCrafter, reference_crafter.hpp) from fixed,
// documented parameters. The canonical traces are generated by code in this
// module — one source of truth — and committed as hex fixtures under
// tests/golden/. The replay test regenerates them and compares byte-for-byte
// against the committed files, which pins the whole wire path (hash family,
// header serializers, iCRC, DTA trailer, query protocol) across refactors:
// any byte drift fails CI with the exact offset. Regenerate intentionally
// with `build/tools/dart_trace golden --out=tests/golden` after a deliberate
// wire-format change.
//
// The corpus (tests/corpus/) is the adversarial twin: frames that once
// crashed or must always be rejected — truncated multiwrites, bad iCRC,
// PSN-wrap edges — plus any shrunk failing case the property runner appends
// (property.hpp). The corpus-replay test feeds every file to the parsers and
// the RNIC ingest path.
//
// Fixture file format (one artifact per line):
//   # trace: <name>
//   # <free-form notes>
//   <lowercase hex, two digits per byte>
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/collector.hpp"
#include "core/config.hpp"
#include "core/report_crafter.hpp"

namespace dart::check {

// --- hex ------------------------------------------------------------------

[[nodiscard]] std::string to_hex(std::span<const std::byte> data);
// Strict pairs of hex digits; interior whitespace allowed. nullopt on any
// other character or an odd digit count.
[[nodiscard]] std::optional<std::vector<std::byte>> from_hex(
    std::string_view text);

// --- traces ---------------------------------------------------------------

struct Trace {
  std::string name;
  std::vector<std::string> notes;                // '#' comment lines
  std::vector<std::vector<std::byte>> artifacts; // one hex line each
};

// Serializes `trace` to `path` (overwrites). Returns false on I/O error.
bool write_trace_file(const std::string& path, const Trace& trace);
// Parses a fixture file; nullopt on I/O or hex errors.
[[nodiscard]] std::optional<Trace> read_trace_file(const std::string& path);

// The deployment every canonical artifact is crafted for. Fixed forever —
// changing any of these invalidates all committed fixtures. Replay tests
// construct their Collector from exactly this (same config, same endpoint →
// same deterministic QPN/rkey/base_vaddr).
struct GoldenDeployment {
  core::DartConfig config;
  core::CollectorEndpoint collector_endpoint;
  core::ReporterEndpoint reporter;
};
[[nodiscard]] GoldenDeployment golden_deployment();

// The value pattern golden write/multiwrite artifacts carry for sim key id
// `k` — fixture notes refer to this as "the golden value".
[[nodiscard]] std::vector<std::byte> golden_value(std::uint64_t k,
                                                  std::uint32_t bytes);

// Canonical golden traces, regenerated from the reference crafters:
//   write_reports      RoCEv2 WRITE reports incl. PSN-wraparound frames
//   atomic_reports     FETCH_ADD and COMPARE_SWAP frames
//   multiwrite_reports §7 DTA multiwrite frames
//   query_wire         v2 query request/response payloads (UDP payload only)
//   sketch_increment_reports  per-row FETCH_ADDs into a sketch collector
// plus the DTA primitive traces and the cht_ring16 owner tables.
[[nodiscard]] std::vector<Trace> canonical_golden_traces();

// Canonical must-reject corpus seeds: every artifact is a full Ethernet
// frame that the RNIC ingest path must refuse without touching memory.
[[nodiscard]] std::vector<Trace> canonical_corpus();

}  // namespace dart::check
