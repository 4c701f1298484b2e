// Pull adapters from the existing per-component counter structs into a
// MetricRegistry.
//
// Each register_* call installs counter_fn callbacks that read the live
// struct at snapshot() time — zero hot-path cost, no ownership transfer. The
// struct (and whatever owns it) must outlive the last snapshot(), the same
// lifetime contract as the counters() / stats() accessors being wrapped.
//
// Header-only on purpose: obs itself depends only on dart_common, so the
// lower layers (core, rdma, net) can link dart_obs for owned metrics; this
// header is for the top of the stack (telemetry, tools, tests, benches),
// which already links everything it names.
//
// Naming: `prefix` is the instance-qualified component name, e.g.
// "dart_collector0"; adapters append "_<struct>_<field>_total".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/netsim.hpp"
#include "obs/metric.hpp"
#include "rdma/qp.hpp"
#include "rdma/rnic.hpp"
#include "switchsim/dart_switch.hpp"

namespace dart::obs {

// switchsim/dart_switch: the egress pipeline's event/report accounting.
inline void register_switch_counters(MetricRegistry& reg,
                                     const std::string& prefix,
                                     const switchsim::SwitchCounters& c) {
  reg.counter_fn(prefix + "_telemetry_events_total",
                 [&c] { return c.telemetry_events; },
                 "on_telemetry() invocations");
  reg.counter_fn(prefix + "_reports_emitted_total",
                 [&c] { return c.reports_emitted; },
                 "RoCEv2 report frames deparsed");
  reg.counter_fn(prefix + "_table_misses_total",
                 [&c] { return c.table_misses; },
                 "hashed collector id not loaded");
  reg.counter_fn(prefix + "_sketch_increments_emitted_total",
                 [&c] { return c.sketch_increments_emitted; },
                 "FETCH_ADD frames fanned out to sketch-backed rows");
  reg.counter_fn(prefix + "_retargets_total", [&c] { return c.retargets; },
                 "rows re-pointed at a backup collector");
  reg.counter_fn(prefix + "_restores_total", [&c] { return c.restores; },
                 "rows restored to the original owner");
}

// rdma/rnic: every verdict of the request-validation pipeline.
inline void register_rnic_counters(MetricRegistry& reg,
                                   const std::string& prefix,
                                   const rdma::RnicCounters& c) {
  const auto add = [&](const char* name, const RelaxedCounter& field,
                       const char* help) {
    reg.counter_fn(prefix + "_rnic_" + name + "_total",
                   [&field] { return field.load(); }, help);
  };
  add("frames", c.frames, "frames seen");
  add("executed", c.executed, "operations applied to memory");
  add("writes", c.writes, "DMA writes executed");
  add("multiwrite_frames", c.multiwrite_frames, "DTA multiwrite frames");
  add("fetch_adds", c.fetch_adds, "fetch-add atomics executed");
  add("compare_swaps", c.compare_swaps, "compare-swap atomics executed");
  add("cas_mismatches", c.cas_mismatches, "CAS compare failures");
  add("not_roce", c.not_roce, "not UDP/4791 or unparsable");
  add("bad_icrc", c.bad_icrc, "iCRC validation failures");
  add("bad_opcode", c.bad_opcode, "unsupported or mismatched opcode");
  add("unknown_qp", c.unknown_qp, "no such queue pair");
  add("psn_rejected", c.psn_rejected, "PSN window rejections");
  add("bad_rkey", c.bad_rkey, "no memory region for rkey");
  add("pd_mismatch", c.pd_mismatch, "QP/MR protection domain mismatch");
  add("access_denied", c.access_denied, "MR access flags deny the op");
  add("out_of_bounds", c.out_of_bounds, "target outside the MR");
  add("unaligned_atomic", c.unaligned_atomic, "atomic at unaligned vaddr");
  add("stalled", c.stalled, "dropped during an injected RNIC stall");
  add("qp_error", c.qp_error, "refused: target QP in the Error state");
}

// rdma/qp: PSN-window accounting, aggregated over every QP of a registry
// (summed at snapshot time — QPs may be created after registration).
inline void register_qp_counters(MetricRegistry& reg, const std::string& prefix,
                                 const rdma::QpRegistry& qps) {
  reg.counter_fn(prefix + "_qp_accepted_total",
                 [&qps] {
                   std::uint64_t sum = 0;
                   qps.for_each([&](const rdma::QueuePair& qp) {
                     sum += qp.counters().accepted;
                   });
                   return sum;
                 },
                 "PSNs accepted across all QPs");
  reg.counter_fn(prefix + "_qp_psn_stale_total",
                 [&qps] {
                   std::uint64_t sum = 0;
                   qps.for_each([&](const rdma::QueuePair& qp) {
                     sum += qp.counters().psn_stale;
                   });
                   return sum;
                 },
                 "duplicate / out-of-window PSNs");
  reg.counter_fn(prefix + "_qp_psn_gaps_total",
                 [&qps] {
                   std::uint64_t sum = 0;
                   qps.for_each([&](const rdma::QueuePair& qp) {
                     sum += qp.counters().psn_gaps;
                   });
                   return sum;
                 },
                 "PSNs skipped by gaps (lost reports)");
  reg.counter_fn(prefix + "_qp_error_drops_total",
                 [&qps] {
                   std::uint64_t sum = 0;
                   qps.for_each([&](const rdma::QueuePair& qp) {
                     sum += qp.counters().error_drops;
                   });
                   return sum;
                 },
                 "packets refused while a QP was in the Error state");
  reg.counter_fn(prefix + "_qp_reconnects_total",
                 [&qps] {
                   std::uint64_t sum = 0;
                   qps.for_each([&](const rdma::QueuePair& qp) {
                     sum += qp.counters().reconnects;
                   });
                   return sum;
                 },
                 "error → ready drain-and-reconnect transitions");
}

// net/netsim: fabric-wide delivery/drop totals plus per-link-set drops via
// register_link_set (callers pass the link ids they care about, e.g. the
// monitoring underlay).
inline void register_simulator(MetricRegistry& reg, const std::string& prefix,
                               const net::Simulator& sim) {
  reg.counter_fn(prefix + "_net_delivered_total",
                 [&sim] { return sim.total_delivered(); },
                 "packets delivered across all links");
  reg.counter_fn(prefix + "_net_dropped_total",
                 [&sim] { return sim.total_dropped(); },
                 "loss-model drops across all links");
  reg.counter_fn(prefix + "_net_queue_drops_total",
                 [&sim] { return sim.total_queue_drops(); },
                 "tail drops at full egress queues");
  reg.counter_fn(prefix + "_net_partitioned_total",
                 [&sim] { return sim.total_partitioned(); },
                 "packets eaten by partitioned (down) links");
  reg.counter_fn(prefix + "_net_corrupted_total",
                 [&sim] { return sim.total_corrupted(); },
                 "packets delivered with injected byte damage");
  reg.counter_fn(prefix + "_net_unrouted_total",
                 [&sim] { return sim.total_unrouted(); },
                 "packets sent where the sender has no link to the receiver");
}

inline void register_link_set(MetricRegistry& reg, const std::string& prefix,
                              const net::Simulator& sim,
                              std::vector<net::LinkId> links) {
  reg.counter_fn(prefix + "_delivered_total",
                 [&sim, links] {
                   std::uint64_t sum = 0;
                   for (const auto id : links) sum += sim.link_stats(id).delivered;
                   return sum;
                 },
                 "packets delivered on this link set");
  reg.counter_fn(prefix + "_dropped_total",
                 [&sim, links] {
                   std::uint64_t sum = 0;
                   for (const auto id : links) {
                     sum += sim.link_stats(id).dropped +
                            sim.link_stats(id).queue_drops;
                   }
                   return sum;
                 },
                 "loss-model + queue drops on this link set");
  reg.counter_fn(prefix + "_partitioned_total",
                 [&sim, links] {
                   std::uint64_t sum = 0;
                   for (const auto id : links) {
                     sum += sim.link_stats(id).partitioned;
                   }
                   return sum;
                 },
                 "packets eaten while links in this set were down");
  reg.counter_fn(prefix + "_corrupted_total",
                 [&sim, links] {
                   std::uint64_t sum = 0;
                   for (const auto id : links) {
                     sum += sim.link_stats(id).corrupted;
                   }
                   return sum;
                 },
                 "packets delivered with injected damage on this link set");
}

}  // namespace dart::obs
