// The table half of every link estimator, written once.
//
// Table management does not depend on the estimate: Woo et al.'s
// replacement, the paper's white+compare flush and the pin bit surround
// whatever ETX math an estimator uses (Figure 6 pairs one table policy
// with several estimates). TableEstimator owns the neighbor table, the
// pin bit, the compare provider, the one-byte beacon sequence and the
// table-* trace events (DESIGN.md §8.7), so every estimator traces its
// table the same way. A concrete estimator derives from it and keeps
// only its beacon header/footer, etx() and the inputs that feed it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/byte_io.hpp"
#include "common/ids.hpp"
#include "link/estimator.hpp"
#include "link/neighbor_table.hpp"
#include "sim/rng.hpp"
#include "sim/telemetry.hpp"

namespace fourbit::link {

/// How a full table admits an unknown beacon sender.
enum class InsertionPolicy {
  /// The paper's rule: only if the packet's white bit is set AND the
  /// network layer's compare bit says the sender's route beats a current
  /// entry; then a random unpinned entry is flushed.
  kWhiteCompare,

  /// Woo et al.'s baseline rule (used by the "ack bit only" variant of
  /// Figure 6): admit with fixed probability, flushing a random unpinned
  /// entry; no cross-layer input.
  kProbabilistic,

  /// Never replace; only free slots are filled.
  kNever,
};

/// `State` is the estimator-specific per-link state.
template <typename State>
class TableEstimator : public LinkEstimator {
 public:
  /// The one-byte sequence header; receivers measure the beacon
  /// reception rate from its gaps.
  [[nodiscard]] std::vector<std::uint8_t> wrap_beacon(
      std::span<const std::uint8_t> routing_payload) override {
    std::vector<std::uint8_t> out;
    out.reserve(1 + routing_payload.size());
    ByteWriter w{out};
    w.u8(next_beacon_seq());
    w.bytes(routing_payload);
    return out;
  }

  bool pin(NodeId n) override {
    const bool pinned = table_.pin(n);
    if (pinned) trace(sim::EventKind::kTablePin, n);
    return pinned;
  }
  void unpin(NodeId n) override {
    if (table_.find(n) != nullptr) trace(sim::EventKind::kTableUnpin, n);
    table_.unpin(n);
  }
  void clear_pins() override { table_.clear_pins(); }

  [[nodiscard]] std::vector<NodeId> neighbors() const override {
    std::vector<NodeId> out;
    out.reserve(table_.size());
    for (const auto& e : table_.entries()) out.push_back(e.node);
    return out;
  }
  [[nodiscard]] std::vector<NodeId> pinned() const override {
    return table_.pinned_nodes();
  }
  [[nodiscard]] std::size_t table_capacity() const override {
    return table_.capacity();
  }

  bool remove(NodeId n) override {
    if (table_.find(n) == nullptr) return true;  // nothing stale left
    const bool removed = table_.remove(n);       // false: entry is pinned
    trace(sim::EventKind::kTableEvict, n, 0,
          static_cast<std::uint16_t>(removed
                                         ? sim::EvictReason::kNetworkRemove
                                         : sim::EvictReason::kRefusedPinned));
    return removed;
  }

  void set_compare_provider(CompareProvider* provider) override {
    compare_ = provider;
  }
  void set_telemetry(sim::TelemetryContext* telemetry, NodeId self) override {
    telemetry_ = telemetry;
    self_ = self.value();
  }

  /// A reboot loses everything in RAM: the table (pins included), every
  /// window in progress, and the beacon sequence counter — neighbors see
  /// OUR seq restart. Harness accounting (counters of past events) is
  /// not node state and survives.
  void reset() override {
    table_.clear();
    beacon_seq_ = 0;
  }

  // ---- introspection (tests, benches) ----
  [[nodiscard]] std::size_t table_size() const { return table_.size(); }
  [[nodiscard]] std::uint8_t beacon_seq() const { return beacon_seq_; }

 protected:
  using Entry = typename NeighborTable<State>::Entry;

  /// A full table admits by `insertion`, drawing from `rng`. A table
  /// that only evicts its worst entry (admit_worst) needs no stream.
  explicit TableEstimator(std::size_t capacity,
                          InsertionPolicy insertion = InsertionPolicy::kNever,
                          double insert_p = 0.0,
                          std::optional<sim::Rng> rng = std::nullopt)
      : table_(capacity),
        insertion_(insertion),
        insert_p_(insert_p),
        rng_(rng) {}

  [[nodiscard]] std::uint8_t next_beacon_seq() { return beacon_seq_++; }

  [[nodiscard]] Entry* find(NodeId n) { return table_.find(n); }
  [[nodiscard]] const Entry* find(NodeId n) const { return table_.find(n); }
  [[nodiscard]] const std::vector<Entry>& entries() const {
    return table_.entries();
  }

  /// Runs the admission policy for an unknown sender whose beacon carried
  /// `payload`. True when the table has room for it: a free slot, or one
  /// just flushed. The draw order (compare query, then the probabilistic
  /// draw, then the victim) is the same for every estimator.
  [[nodiscard]] bool admit(NodeId from, const PacketPhyInfo& phy,
                           std::span<const std::uint8_t> payload) {
    if (!table_.full()) return true;
    switch (insertion_) {
      case InsertionPolicy::kWhiteCompare:
        // The paper's rule SUPPLEMENTS the standard (Woo et al.)
        // replacement policy: a white-bit packet whose sender's route
        // wins the compare-bit query flushes a random unpinned entry
        // right away; other senders still get the probabilistic chance.
        if (phy.white && compare_ != nullptr) {
          const bool wins = compare_->compare_bit(from, payload);
          trace(sim::EventKind::kTableCompare, from, wins ? 1 : 0);
          if (wins) return evict_random(from, sim::EvictReason::kWhiteCompare);
        }
        [[fallthrough]];
      case InsertionPolicy::kProbabilistic:
        return rng().bernoulli(insert_p_) &&
               evict_random(from, sim::EvictReason::kProbabilistic);
      case InsertionPolicy::kNever:
        return false;
    }
    return false;
  }

  /// Makes room for `from` by evicting the unpinned entry that
  /// `worse(a, b)` ranks last (see NeighborTable::evict_worst_unpinned).
  /// False when the table is full of pinned entries.
  template <typename WorseThan>
  [[nodiscard]] bool admit_worst(NodeId from, WorseThan worse) {
    return !table_.full() || evicted(table_.evict_worst_unpinned(worse), from,
                                     sim::EvictReason::kWorstLink);
  }

  /// Inserts `from` into the slot admission made for it.
  Entry& insert(NodeId from, State state, std::uint8_t seq) {
    Entry* entry = table_.insert(from, std::move(state));
    FOURBIT_ASSERT(entry != nullptr, "admission promised a free slot");
    trace(sim::EventKind::kTableInsert, from, seq);
    return *entry;
  }

  void trace(sim::EventKind kind, NodeId peer, std::uint16_t arg = 0,
             std::uint16_t arg2 = 0, double v0 = 0.0, double v1 = 0.0) const {
    if (telemetry_ != nullptr) {
      telemetry_->emit(kind, self_, peer.value(), arg, arg2, v0, v1);
    }
  }

 private:
  sim::Rng& rng() {
    FOURBIT_ASSERT(rng_.has_value(), "random admission needs an rng stream");
    return *rng_;
  }

  bool evict_random(NodeId from, sim::EvictReason reason) {
    return evicted(table_.evict_random_unpinned(rng()), from, reason);
  }

  bool evicted(std::optional<NodeId> victim, NodeId from,
               sim::EvictReason reason) {
    if (victim) {
      trace(sim::EventKind::kTableEvict, *victim, from.value(),
            static_cast<std::uint16_t>(reason));
    }
    return victim.has_value();
  }

  NeighborTable<State> table_;
  InsertionPolicy insertion_;
  double insert_p_;
  std::optional<sim::Rng> rng_;
  CompareProvider* compare_ = nullptr;
  sim::TelemetryContext* telemetry_ = nullptr;
  std::uint16_t self_ = 0xFFFF;
  std::uint8_t beacon_seq_ = 0;
};

}  // namespace fourbit::link
