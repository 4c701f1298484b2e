// Event-driven network simulator.
//
// The fabric model is intentionally lean: nodes connected by point-to-point
// links with propagation latency and a configurable loss process. It exists
// to answer the questions the paper's evaluation poses — do DART reports
// survive report loss thanks to N-way redundancy (§3.1), and what does the
// switch→collector data path look like end to end (§6) — not to model
// congestion control.
//
// Loss models:
//  - Bernoulli(p): independent per-packet loss.
//  - Gilbert-Elliott: bursty loss (good/bad states with distinct drop rates),
//    the standard model for correlated report loss during incidents, which is
//    exactly when telemetry matters most.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "net/event_queue.hpp"
#include "net/packet.hpp"

namespace dart::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFF'FFFFu;

// A node receives packets from the simulator and may send more via the
// Simulator reference passed at attach time.
class Simulator;

class Node {
 public:
  virtual ~Node() = default;

  // Called once when added to the simulator.
  virtual void attach(Simulator& sim, NodeId self) {
    sim_ = &sim;
    self_ = self;
  }

  // Deliver a packet at simulated time `now_ns`, arriving on `link_port`.
  virtual void receive(Packet packet, std::uint64_t now_ns) = 0;

  [[nodiscard]] NodeId id() const noexcept { return self_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 protected:
  Simulator* sim_ = nullptr;
  NodeId self_ = kInvalidNode;

 private:
  std::string name_;
};

// Loss process attached to a link. The RNG is plumbed in per call rather
// than owned, so one model description can be replicated across threads
// (clone()) with each replica driven by its thread's private Xoshiro256
// stream — the pattern the ingest pipeline's feeders use.
class LossModel {
 public:
  virtual ~LossModel() = default;
  [[nodiscard]] virtual bool drop(Xoshiro256& rng) = 0;
  // Fresh replica with the same parameters and initial state (not the
  // current chain state) — per-thread loss processes must start identically.
  [[nodiscard]] virtual std::unique_ptr<LossModel> clone() const = 0;
};

class NoLoss final : public LossModel {
 public:
  [[nodiscard]] bool drop(Xoshiro256&) override { return false; }
  [[nodiscard]] std::unique_ptr<LossModel> clone() const override {
    return std::make_unique<NoLoss>();
  }
};

class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double p) : p_(p) {}
  [[nodiscard]] bool drop(Xoshiro256& rng) override { return rng.chance(p_); }
  [[nodiscard]] std::unique_ptr<LossModel> clone() const override {
    return std::make_unique<BernoulliLoss>(p_);
  }

 private:
  double p_;
};

// Two-state Gilbert-Elliott bursty loss. Each packet is dropped with the
// current state's loss rate, THEN the chain transitions (the standard
// formulation; see GilbertElliottLoss::drop).
class GilbertElliottLoss final : public LossModel {
 public:
  // p_gb: P(good→bad), p_bg: P(bad→good), loss_good/loss_bad: drop rates.
  GilbertElliottLoss(double p_gb, double p_bg, double loss_good,
                     double loss_bad)
      : p_gb_(p_gb), p_bg_(p_bg), loss_good_(loss_good), loss_bad_(loss_bad) {}

  [[nodiscard]] bool drop(Xoshiro256& rng) override;
  [[nodiscard]] std::unique_ptr<LossModel> clone() const override {
    return std::make_unique<GilbertElliottLoss>(p_gb_, p_bg_, loss_good_,
                                                loss_bad_);
  }

  [[nodiscard]] bool in_bad_state() const noexcept { return bad_; }

  // Stationary expected loss rate of the chain: P(bad) = p_gb/(p_gb+p_bg).
  [[nodiscard]] double stationary_loss_rate() const noexcept {
    const double denom = p_gb_ + p_bg_;
    const double p_bad = denom > 0 ? p_gb_ / denom : 0.0;
    return (1.0 - p_bad) * loss_good_ + p_bad * loss_bad_;
  }

 private:
  double p_gb_, p_bg_, loss_good_, loss_bad_;
  bool bad_ = false;
};

struct LinkStats {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;       // loss-model drops
  std::uint64_t queue_drops = 0;   // tail drops at a full egress queue
  std::uint64_t partitioned = 0;   // dropped while the link was down
  std::uint64_t corrupted = 0;     // delivered with injected byte damage
  std::uint32_t max_queue = 0;     // high-water mark of queued packets
};

// Optional link shaping: finite bandwidth serializes packets and builds an
// egress queue — the congestion signal INT's queue-depth metadata measures.
struct LinkShape {
  std::uint64_t bandwidth_bps = 0;  // 0 = infinite (no serialization delay)
  std::uint32_t queue_cap = 0;      // packets; 0 = unbounded
};

using LinkId = std::uint32_t;

// Discrete-event simulator: a time-ordered queue of packet deliveries and
// timer callbacks. Events run in (time, schedule order); a shaped link's
// egress departures are kept per link and retired in that same order.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Node registry. The simulator does not own nodes (callers typically hold
  // them in typed containers); nodes must outlive the simulator run.
  NodeId add_node(Node& node);

  // Adds a unidirectional link; returns its id for stats lookup.
  LinkId add_link(NodeId from, NodeId to, std::uint64_t latency_ns,
                  std::unique_ptr<LossModel> loss = nullptr,
                  LinkShape shape = {});

  // Convenience: two symmetric unidirectional links.
  void connect(NodeId a, NodeId b, std::uint64_t latency_ns,
               double loss_rate = 0.0);

  // Send a packet from `from` over the link to `to`. Without such a link
  // the packet is lost and counted in total_unrouted().
  void send(NodeId from, NodeId to, Packet packet);

  // Schedule a callback at absolute simulated time.
  void schedule(std::uint64_t at_ns, std::function<void()> fn);

  // --- fault-injection control plane (src/fault) ---------------------------
  // All of these are zero-cost when unused: send() tests one bool and one
  // double that default to "healthy" and sit on the Link it already loads.

  // Takes a link down (packets are counted in stats.partitioned and dropped)
  // or back up. Both directions of a pair must be toggled individually.
  void set_link_up(LinkId id, bool up) { links_[id].up = up; }
  [[nodiscard]] bool link_up(LinkId id) const { return links_[id].up; }

  // Corrupts one payload byte of each delivered packet with probability
  // `rate` (seeded by the simulator RNG, so runs stay deterministic).
  void set_link_corruption(LinkId id, double rate) {
    links_[id].corrupt_rate = rate;
  }

  // Runs until the event queue empties or `until_ns` is reached.
  void run(std::uint64_t until_ns = UINT64_MAX);

  [[nodiscard]] std::uint64_t now_ns() const noexcept { return now_ns_; }
  [[nodiscard]] const LinkStats& link_stats(LinkId id) const {
    return links_[id].stats;
  }

  // Instantaneous egress-queue depth of the (from → to) link — what an INT
  // transit switch samples for its queue-depth metadata. 0 if no such link.
  [[nodiscard]] std::uint32_t link_queue_depth(NodeId from, NodeId to) const noexcept;
  [[nodiscard]] std::uint64_t total_delivered() const noexcept;
  [[nodiscard]] std::uint64_t total_dropped() const noexcept;
  [[nodiscard]] std::uint64_t total_queue_drops() const noexcept;
  [[nodiscard]] std::uint64_t total_partitioned() const noexcept;
  [[nodiscard]] std::uint64_t total_corrupted() const noexcept;
  // Packets whose sender had no link to the receiver (a reply addressed to
  // the sender itself or to a node it is not connected to).
  [[nodiscard]] std::uint64_t total_unrouted() const noexcept {
    return unrouted_;
  }
  [[nodiscard]] std::size_t n_links() const noexcept { return links_.size(); }
  [[nodiscard]] Xoshiro256& rng() noexcept { return rng_; }

 private:
  static constexpr LinkId kNoLink = 0xFFFF'FFFFu;

  // A shaped link's egress departure: the packet leaves the queue once fully
  // serialized. Not a queued event, but ordered like one by its
  // (at_ns, seq) key: it takes effect once an event with a later key runs,
  // or when run(until) returns past it.
  struct Departure {
    std::uint64_t at_ns;
    std::uint64_t seq;
  };

  // Unidirectional link. Use connect() for a bidirectional pair.
  struct Link {
    NodeId to = kInvalidNode;
    std::uint64_t latency_ns = 1000;
    std::unique_ptr<LossModel> loss;
    LinkShape shape;
    std::uint64_t busy_until_ns = 0;  // when the serializer frees up
    bool up = true;                   // false = administratively partitioned
    bool pending = false;             // listed in pending_links_
    double corrupt_rate = 0.0;        // per-packet byte-corruption probability
    LinkStats stats;
    // Packets waiting or serializing, oldest first, from index `head`. Empty
    // (no allocation) until the link first queues a packet.
    std::vector<Departure> departures;
    std::size_t head = 0;
  };

  // Values parked until their event fires; freed slots are reused.
  template <typename T>
  class SlotPool {
   public:
    std::uint32_t put(T value) {
      if (free_.empty()) {
        slots_.push_back(std::move(value));
        return static_cast<std::uint32_t>(slots_.size() - 1);
      }
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(value);
      return slot;
    }
    T take(std::uint32_t slot) {
      T value = std::move(slots_[slot]);
      free_.push_back(slot);
      return value;
    }

   private:
    std::vector<T> slots_;
    std::vector<std::uint32_t> free_;
  };

  // A link's place in its source node's chain of outgoing links, kept in
  // add_link order so the first-added link to a destination wins.
  struct OutEdge {
    NodeId to;
    LinkId next = kNoLink;  // the source's next outgoing link
  };

  [[nodiscard]] LinkId find_link(NodeId from, NodeId to) const noexcept;
  void push_event(std::uint64_t at_ns, EventKind kind, NodeId target,
                  std::uint32_t slot);
  // True once `d` has taken effect: its key precedes the one of the event
  // that ran last.
  [[nodiscard]] bool departed(const Departure& d) const noexcept {
    return d.at_ns < now_ns_ || (d.at_ns == now_ns_ && d.seq < last_seq_);
  }
  void retire_departed(Link& link) noexcept;
  void retire_through(std::uint64_t until_ns) noexcept;

  std::vector<Node*> nodes_;
  std::vector<LinkId> first_out_;  // by node: head of its outgoing chain
  std::vector<LinkId> last_out_;   // by node: tail of its outgoing chain
  std::vector<OutEdge> out_edges_;  // by link
  std::vector<Link> links_;
  std::vector<LinkId> pending_links_;  // links that may hold departures
  EventQueue events_;
  SlotPool<Packet> packets_;
  SlotPool<std::function<void()>> callbacks_;
  std::uint64_t now_ns_ = 0;
  std::uint64_t last_seq_ = 0;  // seq of the event that ran last
  std::uint64_t seq_ = 0;
  std::uint64_t unrouted_ = 0;
  Xoshiro256 rng_;
};

}  // namespace dart::net
