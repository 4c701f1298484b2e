// The simulator's pending-event queue (net::Simulator's private core; the
// event-queue property drives it directly).
//
// Events leave in (at_ns, seq) order, event for event, given two conditions
// the simulator meets: pushes come in seq order, and no push is earlier than
// the event popped last (push_event clamps every time to the clock, which
// never runs behind that event). The second makes the queue monotone, so it
// is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, 1990) rather than a
// binary one: a push appends to a bucket with no sift, and a pop regroups
// one bucket at a time.
//
// Buckets are keyed to `last_`, the time of the event popped last. Bucket 0
// holds the events at `last_`, read first-in first-out through `head_`;
// bucket b >= 1 holds those whose time first differs from `last_` at bit
// b - 1. When bucket 0 runs dry, the lowest non-empty bucket holds the next
// time m: `last_` becomes m and that bucket's events move, in their stored
// order, to the lower buckets they now belong to — the ones at m to bucket
// 0. The order is exact because equal times always share a bucket, appends
// and the order-keeping move keep them in push (= seq) order, and bucket 0
// only ever holds the minimum time.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace dart::net {

// One pending event. Trivially copyable: the packet or callback it fires
// waits in a slot pool and is moved out when it runs.
enum class EventKind : std::uint8_t { kDeliver, kCallback };
struct Event {
  std::uint64_t at_ns;
  std::uint64_t seq;     // tie-break for deterministic ordering
  std::uint32_t target;  // kDeliver: the receiving node
  std::uint32_t slot;    // index into the packet or callback pool
  EventKind kind;
};

class EventQueue {
 public:
  void push(const Event& ev) {
    const int b = std::bit_width(ev.at_ns ^ last_);
    buckets_[b].push_back(ev);
    if (b != 0) occupied_ |= std::uint64_t{1} << (b - 1);
  }

  // Takes the next event into `out` if it is due at or before `until_ns`;
  // false (and nothing changes) otherwise.
  bool pop_through(std::uint64_t until_ns, Event& out) {
    if (head_ == buckets_[0].size() && !regroup(until_ns)) return false;
    const Event& next = buckets_[0][head_];
    if (next.at_ns > until_ns) return false;
    out = next;
    ++head_;
    return true;
  }

 private:
  // Refills the drained bucket 0 from the lowest non-empty bucket, unless
  // that bucket's earliest time is past `until_ns`: then `last_` must stay,
  // so that events pushed before the next pop can still land below it.
  bool regroup(std::uint64_t until_ns) {
    buckets_[0].clear();
    head_ = 0;
    if (occupied_ == 0) return false;
    const int b = std::countr_zero(occupied_) + 1;
    std::vector<Event>& from = buckets_[b];
    std::uint64_t next = from.front().at_ns;
    for (const Event& ev : from) next = std::min(next, ev.at_ns);
    if (next > until_ns) return false;
    last_ = next;
    occupied_ &= occupied_ - 1;  // bucket b; every event moves lower
    for (const Event& ev : from) push(ev);
    from.clear();
    return true;
  }

  // Capacities are kept, so a warm simulator allocates nothing here.
  std::array<std::vector<Event>, 65> buckets_;
  std::size_t head_ = 0;          // next unread event of bucket 0
  std::uint64_t last_ = 0;        // time of the event popped last
  std::uint64_t occupied_ = 0;    // bit b - 1: bucket b is non-empty
};

}  // namespace dart::net
