// Structured per-trial telemetry: typed trace events, a counter/gauge
// registry, and an always-on bounded flight recorder.
//
// This replaces the old process-global `sim::Trace` (pre-formatted
// strings behind static state, unusable while a parallel campaign ran).
// A TelemetryContext is owned BY a Simulator, so every trial carries its
// own, and nothing here is shared across threads:
//
//   * Events are small fixed-size PODs, not strings. An emit below the
//     configured level costs one branch; an enabled emit costs that
//     branch plus a bounded ring-buffer write (the flight recorder) and,
//     when a sink is attached, one virtual call.
//   * The flight recorder always keeps the last kFlightCapacity events
//     at the configured level. When a supervised trial dies (assert,
//     exception, timeout, invariant violation) the supervisor attaches
//     the recording to the TrialFailure, so a failure report arrives
//     with the sim's recent history instead of a bare message.
//   * The counter registry holds monotonic counters and sampled gauges
//     under stable (component, name, node) keys; handles are raw
//     pointers resolved once at registration, so the hot path pays one
//     increment. stats::JsonlExporter snapshots the registry into the
//     trace file at end of trial.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace fourbit::sim {

enum class TraceLevel : std::uint8_t {
  kOff = 0,
  kError = 1,
  kInfo = 2,
  kDebug = 3,
};

[[nodiscard]] std::string_view trace_level_name(TraceLevel level);

/// The event taxonomy (see DESIGN.md §8.7 for the field conventions of
/// each kind). Per-packet plumbing (beacon/data/phy frames) records at
/// kDebug; state changes (table ops, ETX updates, routes, faults) at
/// kInfo, so the default level captures every decision the estimator
/// pipeline makes without paying per-frame ring writes.
enum class EventKind : std::uint8_t {
  kBeaconTx = 0,   // node broadcast a routing beacon
  kBeaconRx,       // beacon received (peer = sender, arg = layer-2.5 seq)
  kDataTx,         // unicast data tx (peer = dst, arg = seq, arg2 = attempt)
  kDataAck,        // layer-2 ack came back (peer = dst, arg = seq)
  kDataRetx,       // retrying after a missing ack (peer = dst, arg = seq)
  kDataDrop,       // packet dropped (peer = origin, arg = seq, arg2 = reason)
  kTableInsert,    // neighbor admitted (peer = neighbor)
  kTableEvict,     // entry removed (peer = victim, arg2 = reason)
  kTablePin,       // pin bit set (peer = neighbor)
  kTableUnpin,     // pin bit cleared (peer = neighbor)
  kTableCompare,   // compare-bit query (peer = candidate, arg = answer)
  kEtxUpdate,      // estimate moved (peer, arg = stream, v0 = old, v1 = new)
  kRouteChange,    // parent switch (peer = new, arg = old, arg2 = reason)
  kFaultStart,     // injected fault began (arg2 = FaultKind)
  kFaultEnd,       // injected fault lifted (arg2 = FaultKind)
  kPhyFrame,       // frame on the air (arg = bytes); the phy hot path
};

inline constexpr std::size_t kEventKindCount = 16;

[[nodiscard]] std::string_view event_kind_name(EventKind kind);

/// Severity of each kind, fixed at compile time: the emit hot path
/// compares it against the context level in one branch.
[[nodiscard]] constexpr TraceLevel event_level(EventKind kind) {
  switch (kind) {
    case EventKind::kBeaconTx:
    case EventKind::kBeaconRx:
    case EventKind::kDataTx:
    case EventKind::kDataAck:
    case EventKind::kPhyFrame:
      return TraceLevel::kDebug;
    case EventKind::kDataRetx:
    case EventKind::kDataDrop:
    case EventKind::kTableInsert:
    case EventKind::kTableEvict:
    case EventKind::kTablePin:
    case EventKind::kTableUnpin:
    case EventKind::kTableCompare:
    case EventKind::kEtxUpdate:
    case EventKind::kRouteChange:
    case EventKind::kFaultStart:
    case EventKind::kFaultEnd:
      return TraceLevel::kInfo;
  }
  return TraceLevel::kDebug;
}

// arg2 conventions, kept as plain uint16 constants so events stay PODs.

/// kDataDrop arg2: why the packet died.
enum class DropReason : std::uint16_t {
  kQueueFullOrigin = 0,
  kQueueFullForward = 1,
  kThlExceeded = 2,
  kRetxExhausted = 3,
};

/// kTableEvict arg2: which policy removed (or refused to remove) it.
enum class EvictReason : std::uint16_t {
  kWhiteCompare = 0,   // the paper's white+compare flush
  kProbabilistic = 1,  // baseline probabilistic replacement
  kNetworkRemove = 2,  // network layer gave up on the link
  kRefusedPinned = 3,  // removal refused: entry pinned (nothing evicted)
  kWorstLink = 4,      // worst-link replacement (MultiHopLQI: lowest LQI)
};

/// kEtxUpdate arg: which stream fed the outer EWMA (Figure 5's kb/ku).
enum class EtxStream : std::uint16_t { kBeacon = 0, kData = 1 };

/// kRouteChange arg2.
enum class RouteChangeReason : std::uint16_t {
  kBetterParent = 0,   // ordinary switch to a cheaper route
  kParentEvicted = 1,  // dead-parent eviction left the node routeless
};

/// One recorded event. 40 bytes, trivially copyable; `peer` and node-id
/// valued args use 0xFFFF/0xFFFE ("broadcast"/"none") as sentinels.
struct TelemetryEvent {
  Time at{};
  EventKind kind = EventKind::kBeaconTx;
  std::uint16_t node = 0xFFFF;
  std::uint16_t peer = 0xFFFF;
  std::uint16_t arg = 0;
  std::uint16_t arg2 = 0;
  double v0 = 0.0;
  double v1 = 0.0;
};

/// Receives every emitted event that passes the level and node filters.
/// Sinks are per-trial objects (the JSONL exporter); they run on the
/// trial's own thread.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void on_event(const TelemetryEvent& event) = 0;
};

/// Fixed-layout log2-bucketed histogram. Bucket b holds values whose
/// bit-width is b (bucket 0 = {0}, bucket b = [2^(b-1), 2^b - 1]),
/// saturating at the last bucket — so any uint64 lands in one of 64 POD
/// bins with no configuration, two histograms merge by elementwise add,
/// and the bins ride the existing CRC-framed codecs unchanged.
inline constexpr std::size_t kHistogramBins = 64;

[[nodiscard]] constexpr std::size_t histogram_bucket(std::uint64_t value) {
  const auto width = static_cast<std::size_t>(std::bit_width(value));
  return width < kHistogramBins ? width : kHistogramBins - 1;
}

/// Lower edge of bucket `bin` (bucket 0 holds exactly {0}).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_floor(std::size_t bin) {
  return bin == 0 ? 0 : std::uint64_t{1} << (bin - 1);
}

struct Histogram {
  std::array<std::uint64_t, kHistogramBins> bins{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void record(std::uint64_t value) {
    ++bins[histogram_bucket(value)];
    ++count;
    sum += value;
  }
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kHistogramBins; ++i) bins[i] += other.bins[i];
    count += other.count;
    sum += other.sum;
  }
  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// winning bucket; exact for bucket 0, upper-bounded by bucket edges
  /// elsewhere. Returns 0 on an empty histogram.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

struct HistogramRow {
  std::string component;
  std::string name;
  std::uint16_t node = 0xFFFF;
  Histogram hist;
};

/// Engine phases covered by the scoped profiling timers.
enum class ProfilePhase : std::uint8_t {
  kEventDispatch = 0,  // one event callback inside Simulator::execute_next
  kChannelFreeze,      // link-cache rebuild (dense or sparse)
  kBatchKernel,        // one batched SNR->PRR/interference kernel pass
  kTrialSetup,         // network construction + boot, before run_for
  kTrialTeardown,      // metric extraction after the sim clock stops
};

inline constexpr std::size_t kProfilePhaseCount = 5;

[[nodiscard]] std::string_view profile_phase_name(ProfilePhase phase);

class TelemetryContext {
 public:
  /// Flight-recorder depth (power of two; the ring index is masked).
  static constexpr std::size_t kFlightCapacity = 128;

  TelemetryContext() = default;
  ~TelemetryContext();

  TelemetryContext(const TelemetryContext&) = delete;
  TelemetryContext& operator=(const TelemetryContext&) = delete;

  /// Binds the owning Simulator's clock so emit() can stamp events
  /// without every call site passing the time. Unbound contexts (bare
  /// unit tests) stamp Time{}.
  void bind_clock(const Time* now) { clock_ = now; }

  void set_level(TraceLevel level) { level_ = level; }
  [[nodiscard]] TraceLevel level() const { return level_; }
  [[nodiscard]] bool enabled(TraceLevel level) const {
    return static_cast<int>(level) <= static_cast<int>(level_);
  }

  /// Sink for full-trace export (may be null). The flight recorder works
  /// with or without one.
  void set_sink(TelemetrySink* sink) { sink_ = sink; }

  /// Restricts sink forwarding to events whose `node` or `peer` is in
  /// `nodes` (empty = no filter). The flight recorder is never filtered:
  /// a failure report should see everything recent.
  void set_node_filter(std::vector<std::uint16_t> nodes) {
    node_filter_ = std::move(nodes);
  }

  // ---- the hot path ---------------------------------------------------

  void emit(EventKind kind, std::uint16_t node, std::uint16_t peer = 0xFFFF,
            std::uint16_t arg = 0, std::uint16_t arg2 = 0, double v0 = 0.0,
            double v1 = 0.0) {
    if (!enabled(event_level(kind))) return;  // the disabled-path branch
    TelemetryEvent& slot = flight_[head_ & (kFlightCapacity - 1)];
    slot.at = clock_ != nullptr ? *clock_ : Time{};
    slot.kind = kind;
    slot.node = node;
    slot.peer = peer;
    slot.arg = arg;
    slot.arg2 = arg2;
    slot.v0 = v0;
    slot.v1 = v1;
    ++head_;
    if (sink_ != nullptr && node_passes(node, peer)) sink_->on_event(slot);
  }

  // ---- flight recorder ------------------------------------------------

  /// Recorded events, oldest first (at most kFlightCapacity).
  [[nodiscard]] std::vector<TelemetryEvent> flight() const;

  [[nodiscard]] std::uint64_t events_recorded() const { return head_; }

  /// The destructor publishes the flight recording to a thread-local
  /// slot; a supervisor that just watched a trial die on this thread
  /// collects it here (the Simulator — and its context — were destroyed
  /// by stack unwinding before the catch block ran).
  [[nodiscard]] static std::vector<TelemetryEvent> take_last_flight();
  static void clear_last_flight();

  // ---- counter / gauge / histogram registry ---------------------------
  //
  // Stable string keys: (component, name, node). node 0xFFFF = a
  // whole-sim counter. Registering the same key twice returns the same
  // slot. Handles stay valid for the context's lifetime (deque storage).

  struct CounterRow {
    std::string component;
    std::string name;
    std::uint16_t node = 0xFFFF;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string component;
    std::string name;
    std::uint16_t node = 0xFFFF;
    double value = 0.0;
  };

  [[nodiscard]] std::uint64_t* counter(std::string_view component,
                                       std::string_view name,
                                       std::uint16_t node = 0xFFFF);
  [[nodiscard]] double* gauge(std::string_view component,
                              std::string_view name,
                              std::uint16_t node = 0xFFFF);
  [[nodiscard]] Histogram* histogram(std::string_view component,
                                     std::string_view name,
                                     std::uint16_t node = 0xFFFF);

  /// Registration order (deterministic per trial: components register in
  /// construction order, which is a pure function of the config).
  [[nodiscard]] const std::deque<CounterRow>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::deque<GaugeRow>& gauges() const { return gauges_; }
  [[nodiscard]] const std::deque<HistogramRow>& histograms() const {
    return histograms_;
  }

  // ---- phase profiling -------------------------------------------------
  //
  // Scoped wall-clock timers over the engine's hot phases, feeding
  // per-phase histograms ("profile", "<phase>_ns"). Off by default: a
  // disabled PhaseTimer costs one branch (mirroring the emit() gate), no
  // clock read, and registers nothing — so clean-run registries (and
  // therefore JSONL exports) are byte-identical with profiling absent.
  // Wall-clock samples are inherently nondeterministic; enabling
  // profiling is an explicit observability opt-in (`--profile-phases`).

  void set_profiling(bool on) { profiling_ = on; }
  [[nodiscard]] bool profiling() const { return profiling_; }

  /// Lazily registers (and caches) the histogram backing `phase`.
  [[nodiscard]] Histogram* phase_histogram(ProfilePhase phase);

 private:
  [[nodiscard]] bool node_passes(std::uint16_t node,
                                 std::uint16_t peer) const {
    if (node_filter_.empty()) return true;
    for (const std::uint16_t n : node_filter_) {
      if (n == node || n == peer) return true;
    }
    return false;
  }

  TraceLevel level_ = TraceLevel::kInfo;
  const Time* clock_ = nullptr;
  TelemetrySink* sink_ = nullptr;
  std::vector<std::uint16_t> node_filter_;

  std::array<TelemetryEvent, kFlightCapacity> flight_{};
  std::uint64_t head_ = 0;

  std::deque<CounterRow> counters_;
  std::deque<GaugeRow> gauges_;
  std::deque<HistogramRow> histograms_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
  std::unordered_map<std::string, std::size_t> histogram_index_;

  bool profiling_ = false;
  std::array<Histogram*, kProfilePhaseCount> phase_hists_{};
};

/// Scoped phase timer. Construction with profiling off is the entire
/// disabled path: one branch, no clock read, no registration (gated in
/// CI by BM_PhaseTimerDisabled next to BM_TelemetryDisabled). Enabled,
/// it records elapsed steady-clock nanoseconds into the per-phase
/// histogram on scope exit.
class PhaseTimer {
 public:
  PhaseTimer(TelemetryContext& context, ProfilePhase phase) {
    if (!context.profiling()) return;
    hist_ = context.phase_histogram(phase);
    start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (hist_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    hist_->record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Histogram* hist_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace fourbit::sim
