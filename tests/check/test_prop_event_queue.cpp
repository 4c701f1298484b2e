// The simulator's event queue (src/net/event_queue.hpp) against a binary
// heap on (at_ns, seq), the order in which the simulator runs its events.
//
// Each case is a random interleaving of three operations, played on the
// queue and on the reference heap alike:
//
// - push: one to eight events at now + {0, a time another event holds,
//   1-64 ns, ~1 us (a data hop plus serialization), 5 us (a report), 40 us
//   (a flow wave), 1.4 ms (a gateway deadline), anything up to
//   UINT64_MAX}, or at a past time, clamped to now as Simulator::push_event
//   does;
// - pop-through: up to 16 pops at one `until` below now, equal to the next
//   event time, between two pending times, past them, or UINT64_MAX;
// - a clock that moves forward without a pop, as Simulator::retire_through
//   rests it on a departure, never past the next pending event.
//
// Every popped (at_ns, seq, target, slot, kind) and every "nothing due"
// answer must match; each case then drains both through UINT64_MAX.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "check/property.hpp"
#include "net/event_queue.hpp"

namespace dart::check {
namespace {

using net::Event;
using net::EventKind;
using net::EventQueue;

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

// The reference order: later (at_ns, seq) sorts first, so the heap's front
// is the earliest event.
struct EventLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    return a.at_ns != b.at_ns ? a.at_ns > b.at_ns : a.seq > b.seq;
  }
};

class HeapQueue {
 public:
  void push(const Event& ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), EventLater{});
  }
  bool pop_through(std::uint64_t until_ns, Event& out) {
    if (heap_.empty() || heap_.front().at_ns > until_ns) return false;
    std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
    out = heap_.back();
    heap_.pop_back();
    return true;
  }
  [[nodiscard]] const std::vector<Event>& pending() const noexcept {
    return heap_;
  }

 private:
  std::vector<Event> heap_;
};

struct Coverage {
  std::uint64_t pops = 0;
  std::uint64_t same_instant = 0;   // popped at the time of the pop before
  std::uint64_t held_back = 0;      // "nothing due" with events pending
  std::uint64_t below_now = 0;      // pop-through with until < now
  std::uint64_t clamped = 0;        // pushes at a past time
  std::uint64_t advanced = 0;       // clock moves without a pop
  std::uint64_t far = 0;            // pushes at or past 2^40 ns
};

std::uint64_t plus(std::uint64_t a, std::uint64_t b) {
  return b > kMax - a ? kMax : a + b;
}

std::string show(const Event& ev) {
  return "(at " + std::to_string(ev.at_ns) + ", seq " +
         std::to_string(ev.seq) + ", slot " + std::to_string(ev.slot) + ")";
}

bool same(const Event& a, const Event& b) {
  return a.at_ns == b.at_ns && a.seq == b.seq && a.target == b.target &&
         a.slot == b.slot && a.kind == b.kind;
}

std::uint64_t gen_push_time(Rng& rng, std::uint64_t now, const HeapQueue& ref,
                            Coverage& cov) {
  switch (rng.below(9)) {
    case 0:
      return now;
    case 1: {
      const auto& pending = ref.pending();
      if (pending.empty()) return now;
      return pending[rng.below(pending.size())].at_ns;
    }
    case 2:
      return plus(now, rng.range(1, 64));
    case 3:
      return plus(now, 1000 + rng.below(600));
    case 4:
      return plus(now, 5000);
    case 5:
      return plus(now, 40'000);
    case 6:
      return plus(now, 1'400'000);
    case 7:
      return rng.range(now, kMax);
    default:
      if (now == 0) return 0;
      ++cov.clamped;
      return now - rng.range(1, now);
  }
}

// Distinct pending times, ascending.
std::vector<std::uint64_t> pending_times(const HeapQueue& ref) {
  std::vector<std::uint64_t> times;
  for (const auto& ev : ref.pending()) times.push_back(ev.at_ns);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

std::uint64_t gen_until(Rng& rng, std::uint64_t now, const HeapQueue& ref,
                        Coverage& cov) {
  const auto times = pending_times(ref);
  switch (rng.below(5)) {
    case 0:
      return kMax;
    case 1:
      return times.empty() ? now : times.front();
    case 2: {
      // At or past one pending time, short of the next.
      if (times.empty()) return now;
      const std::size_t i = rng.below(times.size());
      const std::uint64_t next = i + 1 < times.size() ? times[i + 1] : kMax;
      return times[i] + rng.below(next - times[i]);
    }
    case 3:
      if (now == 0) return 0;
      ++cov.below_now;
      return now - rng.range(1, now);
    default:
      return plus(now, rng.below(2'000'000));
  }
}

std::optional<Failure> event_queue_property(Rng& rng, Coverage& cov) {
  EventQueue queue;
  HeapQueue ref;
  std::uint64_t now = 0;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  std::optional<std::uint64_t> last_popped;

  // One pop-through on both sides; a Failure when they disagree.
  const auto pop = [&](std::uint64_t until, std::size_t op,
                       bool& popped) -> std::optional<Failure> {
    Event got{};
    Event want{};
    const bool got_one = queue.pop_through(until, got);
    popped = ref.pop_through(until, want);
    const std::string where =
        "op " + std::to_string(op) + ", pop_through(" + std::to_string(until) +
        ") at now " + std::to_string(now) + ": ";
    if (got_one != popped) {
      return Failure{where + (got_one ? "queue popped " + show(got) +
                                            ", heap had nothing due"
                                      : "queue had nothing due, heap popped " +
                                            show(want)),
                     {}};
    }
    if (!popped) {
      cov.held_back += !ref.pending().empty();
      return std::nullopt;
    }
    if (!same(got, want)) {
      return Failure{where + "queue popped " + show(got) + ", heap " +
                         show(want),
                     {}};
    }
    ++cov.pops;
    cov.same_instant += last_popped == want.at_ns;
    last_popped = want.at_ns;
    now = want.at_ns;
    return std::nullopt;
  };

  const std::size_t n_ops = 1 + rng.below(300);
  for (std::size_t op = 0; op < n_ops; ++op) {
    const auto choice = rng.below(8);
    if (choice < 4) {
      for (std::uint64_t n = 1 + rng.below(8); n > 0; --n) {
        const std::uint64_t at =
            std::max(gen_push_time(rng, now, ref, cov), now);
        cov.far += at >= (std::uint64_t{1} << 40);
        // Shaped-link departures draw seqs too: the queue sees gaps.
        seq += rng.below(2);
        const Event ev{at, seq++, static_cast<std::uint32_t>(rng.below(64)),
                       slot++,
                       rng.below(2) == 0 ? EventKind::kDeliver
                                         : EventKind::kCallback};
        queue.push(ev);
        ref.push(ev);
      }
    } else if (choice < 7) {
      const std::uint64_t until = gen_until(rng, now, ref, cov);
      for (std::uint64_t n = 1 + rng.below(16); n > 0; --n) {
        bool popped = false;
        if (auto failure = pop(until, op, popped)) return failure;
        if (!popped) break;
      }
    } else {
      // Never past the next pending event: the simulator's clock rests on
      // a departure at or before run()'s `until`, which no pending event
      // precedes.
      std::uint64_t limit = plus(now, 2'000'000);
      for (const auto& ev : ref.pending()) limit = std::min(limit, ev.at_ns);
      now = rng.range(now, limit);
      ++cov.advanced;
    }
  }
  for (std::size_t drained = 0;; ++drained) {
    bool popped = false;
    if (auto failure = pop(kMax, n_ops + drained, popped)) return failure;
    if (!popped) break;
  }
  return std::nullopt;
}

TEST(PropEventQueue, PopsInHeapOrderEventForEvent) {
  Coverage cov;
  const auto report = check(
      "event_queue_heap_order",
      [&cov](Rng& rng) { return event_queue_property(rng, cov); }, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
  // The generators reach every case the property names.
  EXPECT_GT(cov.pops, 100'000u);
  EXPECT_GT(cov.same_instant, 10'000u);
  EXPECT_GT(cov.held_back, 5000u);
  EXPECT_GT(cov.below_now, 1000u);
  EXPECT_GT(cov.clamped, 1000u);
  EXPECT_GT(cov.advanced, 1000u);
  EXPECT_GT(cov.far, 1000u);
}

}  // namespace
}  // namespace dart::check
