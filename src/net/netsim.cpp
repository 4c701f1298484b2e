#include "net/netsim.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dart::net {

bool GilbertElliottLoss::drop(Xoshiro256& rng) {
  // Standard Gilbert-Elliott formulation: the CURRENT state decides this
  // packet's fate, then the chain transitions for the next packet.
  // (Transitioning first is a subtly different chain: the very first packet
  // would already sample the post-transition state, which shifts the burst
  // statistics and makes the initial state unobservable.)
  const bool lost = rng.chance(bad_ ? loss_bad_ : loss_good_);
  if (bad_) {
    if (rng.chance(p_bg_)) bad_ = false;
  } else {
    if (rng.chance(p_gb_)) bad_ = true;
  }
  return lost;
}

NodeId Simulator::add_node(Node& node) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(&node);
  first_out_.push_back(kNoLink);
  last_out_.push_back(kNoLink);
  node.attach(*this, id);
  return id;
}

LinkId Simulator::add_link(NodeId from, NodeId to, std::uint64_t latency_ns,
                           std::unique_ptr<LossModel> loss, LinkShape shape) {
  assert(from < nodes_.size() && to < nodes_.size());
  const auto id = static_cast<LinkId>(links_.size());
  Link link;
  link.to = to;
  link.latency_ns = latency_ns;
  link.loss = loss ? std::move(loss) : std::make_unique<NoLoss>();
  link.shape = shape;
  links_.push_back(std::move(link));
  out_edges_.push_back(OutEdge{to});
  if (last_out_[from] == kNoLink) {
    first_out_[from] = id;
  } else {
    out_edges_[last_out_[from]].next = id;
  }
  last_out_[from] = id;
  return id;
}

void Simulator::connect(NodeId a, NodeId b, std::uint64_t latency_ns,
                        double loss_rate) {
  auto make_loss = [&]() -> std::unique_ptr<LossModel> {
    if (loss_rate <= 0.0) return std::make_unique<NoLoss>();
    return std::make_unique<BernoulliLoss>(loss_rate);
  };
  add_link(a, b, latency_ns, make_loss());
  add_link(b, a, latency_ns, make_loss());
}

LinkId Simulator::find_link(NodeId from, NodeId to) const noexcept {
  if (from >= first_out_.size()) return kNoLink;
  LinkId id = first_out_[from];
  while (id != kNoLink && out_edges_[id].to != to) id = out_edges_[id].next;
  return id;
}

void Simulator::send(NodeId from, NodeId to, Packet packet) {
  const LinkId id = find_link(from, to);
  if (id == kNoLink) {
    ++unrouted_;
    return;
  }
  Link* link = &links_[id];
  if (!link->up) {
    // Partitioned link: silently eats packets, like a dead cable. Counted
    // separately from loss-model drops so conservation checks can tell an
    // injected partition from ambient report loss.
    ++link->stats.partitioned;
    return;
  }
  if (link->loss->drop(rng_)) {
    ++link->stats.dropped;
    return;
  }
  if (link->corrupt_rate > 0.0 && rng_.chance(link->corrupt_rate) &&
      !packet.bytes().empty()) {
    // Flip one bit of one byte in the back half of the frame (headers stay
    // parsable; the iCRC at the receiver is what should catch this).
    auto bytes = packet.mutable_bytes();
    const std::size_t at = bytes.size() / 2 + rng_.below(bytes.size() -
                                                         bytes.size() / 2);
    bytes[at] ^= std::byte{0x10};
    ++link->stats.corrupted;
  }

  std::uint64_t deliver_at;
  if (link->shape.bandwidth_bps == 0) {
    // Ideal link: pure propagation delay.
    deliver_at = now_ns_ + link->latency_ns;
  } else {
    // Shaped link: serialize behind earlier packets; tail-drop a full queue.
    retire_departed(*link);
    const auto queued =
        static_cast<std::uint32_t>(link->departures.size() - link->head);
    if (link->shape.queue_cap != 0 && queued >= link->shape.queue_cap) {
      ++link->stats.queue_drops;
      return;
    }
    const std::uint64_t serialization_ns =
        packet.size() * 8ull * 1'000'000'000ull / link->shape.bandwidth_bps;
    const std::uint64_t start = std::max(now_ns_, link->busy_until_ns);
    link->busy_until_ns = start + serialization_ns;
    deliver_at = link->busy_until_ns + link->latency_ns;

    link->stats.max_queue = std::max(link->stats.max_queue, queued + 1);
    // The packet leaves the egress queue when fully serialized. Its
    // departure draws a seq like any event scheduled here, which fixes its
    // place among events at the same instant.
    link->departures.push_back(Departure{link->busy_until_ns, seq_++});
    if (!link->pending) {
      link->pending = true;
      pending_links_.push_back(id);
    }
  }

  ++link->stats.delivered;
  push_event(deliver_at, EventKind::kDeliver, to,
             packets_.put(std::move(packet)));
}

std::uint32_t Simulator::link_queue_depth(NodeId from, NodeId to) const noexcept {
  const LinkId id = find_link(from, to);
  if (id == kNoLink) return 0;
  const Link& link = links_[id];
  std::size_t first = link.head;
  while (first < link.departures.size() && departed(link.departures[first])) {
    ++first;
  }
  return static_cast<std::uint32_t>(link.departures.size() - first);
}

void Simulator::schedule(std::uint64_t at_ns, std::function<void()> fn) {
  push_event(at_ns, EventKind::kCallback, kInvalidNode,
             callbacks_.put(std::move(fn)));
}

void Simulator::push_event(std::uint64_t at_ns, EventKind kind, NodeId target,
                           std::uint32_t slot) {
  events_.push(Event{std::max(at_ns, now_ns_), seq_++, target, slot, kind});
}

void Simulator::retire_departed(Link& link) noexcept {
  while (link.head < link.departures.size() &&
         departed(link.departures[link.head])) {
    ++link.head;
  }
  if (link.head == link.departures.size()) {
    link.departures.clear();  // keeps the capacity
    link.head = 0;
  } else if (link.head >= 64 && 2 * link.head >= link.departures.size()) {
    // A queue that never drains: drop the retired prefix.
    link.departures.erase(link.departures.begin(),
                          link.departures.begin() +
                              static_cast<std::ptrdiff_t>(link.head));
    link.head = 0;
  }
}

void Simulator::retire_through(std::uint64_t until_ns) noexcept {
  // Departures are ordered like events: every one at or before `until_ns`
  // takes effect before run(until_ns) returns, and the clock rests on the
  // last of them as it would on an event.
  for (std::size_t i = 0; i < pending_links_.size();) {
    Link& link = links_[pending_links_[i]];
    while (link.head < link.departures.size() &&
           link.departures[link.head].at_ns <= until_ns) {
      now_ns_ = std::max(now_ns_, link.departures[link.head].at_ns);
      ++link.head;
    }
    if (link.head < link.departures.size()) {
      ++i;
      continue;
    }
    link.departures.clear();
    link.head = 0;
    link.pending = false;
    pending_links_[i] = pending_links_.back();
    pending_links_.pop_back();
  }
}

void Simulator::run(std::uint64_t until_ns) {
  Event ev{};
  while (events_.pop_through(until_ns, ev)) {
    now_ns_ = ev.at_ns;
    last_seq_ = ev.seq;
    if (ev.kind == EventKind::kDeliver) {
      nodes_[ev.target]->receive(packets_.take(ev.slot), ev.at_ns);
    } else {
      callbacks_.take(ev.slot)();
    }
  }
  retire_through(until_ns);
}

std::uint64_t Simulator::total_delivered() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : links_) n += l.stats.delivered;
  return n;
}

std::uint64_t Simulator::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : links_) n += l.stats.dropped;
  return n;
}

std::uint64_t Simulator::total_queue_drops() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : links_) n += l.stats.queue_drops;
  return n;
}

std::uint64_t Simulator::total_partitioned() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : links_) n += l.stats.partitioned;
  return n;
}

std::uint64_t Simulator::total_corrupted() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : links_) n += l.stats.corrupted;
  return n;
}

}  // namespace dart::net
