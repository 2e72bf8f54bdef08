// Self-time arithmetic for nested spans.
//
// The traced run wraps each layer seam in a span. A span's self time is
// its duration minus the time covered by the spans nested inside it and
// minus the PHY phase time (channel freeze, batch kernel) that completed
// inside it but outside any nested span. PHY phases are timed by the
// simulator's own sim::PhaseTimer, so they arrive here as a cumulative
// nanosecond counter read at span entry and exit.
//
// Times are plain integers from one monotonic clock, so the arithmetic is
// exact: the self times of a span tree plus its phase time add up to the
// outermost span's duration to the nanosecond.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The seams the traced stack decorates.
enum class Seam : std::uint8_t {
  kMacSend,      // mac::Mac::send, net -> MAC
  kNetRx,        // MAC rx/snoop handler, MAC -> net
  kNetSendDone,  // MAC send-done callback, MAC -> net
  kNetCompare,   // link::CompareProvider::compare_bit, estimator -> net
  kEstimator,    // any link::LinkEstimator call, net -> estimator
};

inline constexpr std::size_t kSeamCount = 5;

class SpanStack {
 public:
  /// Opens a span. `now_ns` is the wall clock; `phase_ns` is the PHY
  /// phase time completed so far. Both must never decrease.
  void enter(Seam seam, std::int64_t now_ns, std::int64_t phase_ns) {
    frames_.push_back(Frame{seam, now_ns, phase_ns, 0, 0});
  }

  /// Closes the innermost open span.
  void exit(std::int64_t now_ns, std::int64_t phase_ns) {
    const Frame f = frames_.back();
    frames_.pop_back();
    const std::int64_t duration = now_ns - f.start_ns;
    const std::int64_t phase = phase_ns - f.phase_start_ns;
    const std::int64_t own_phase = phase - f.child_phase_ns;
    const std::int64_t self = duration - f.child_ns - own_phase;
    if (self < min_self_ns_) min_self_ns_ = self;
    self_ns_[static_cast<std::size_t>(f.seam)] += self;
    if (frames_.empty()) {
      top_ns_ += duration;
      top_phase_ns_ += phase;
    } else {
      frames_.back().child_ns += duration;
      frames_.back().child_phase_ns += phase;
    }
  }

  [[nodiscard]] std::int64_t self_ns(Seam seam) const {
    return self_ns_[static_cast<std::size_t>(seam)];
  }
  /// Summed duration of the outermost spans.
  [[nodiscard]] std::int64_t top_ns() const { return top_ns_; }
  /// PHY phase time that completed inside some span.
  [[nodiscard]] std::int64_t top_phase_ns() const { return top_phase_ns_; }
  /// Smallest self time any single span had (0 before the first span).
  [[nodiscard]] std::int64_t min_self_ns() const { return min_self_ns_; }
  [[nodiscard]] std::size_t depth() const { return frames_.size(); }

 private:
  struct Frame {
    Seam seam;
    std::int64_t start_ns;
    std::int64_t phase_start_ns;
    std::int64_t child_ns;        // summed duration of direct children
    std::int64_t child_phase_ns;  // phase time inside direct children
  };

  std::vector<Frame> frames_;
  std::array<std::int64_t, kSeamCount> self_ns_{};
  std::int64_t top_ns_ = 0;
  std::int64_t top_phase_ns_ = 0;
  std::int64_t min_self_ns_ = 0;
};

/// Splits the host time of one `run_for` into layers. `run_ns` is the
/// run_for wall, `dispatch_ns` the event-dispatch phase total, and
/// `phase_ns` the PHY phase total (freeze + kernel), all inside run_for.
/// Every seam span and PHY phase runs inside an event, so
///   run_ns = loop_self + sum(seam self) + phase_ns + mac_phy_self.
struct LayerSplit {
  std::int64_t loop_self_ns = 0;     // run_for minus event dispatch
  std::int64_t mac_phy_self_ns = 0;  // dispatch outside every seam and phase
};

[[nodiscard]] inline LayerSplit split_run(const SpanStack& spans,
                                          std::int64_t run_ns,
                                          std::int64_t dispatch_ns,
                                          std::int64_t phase_ns) {
  LayerSplit split;
  split.loop_self_ns = run_ns - dispatch_ns;
  // Outside the spans: dispatch time minus the outermost spans (which
  // hold their nested spans and phases) minus the phases run elsewhere.
  split.mac_phy_self_ns =
      dispatch_ns - spans.top_ns() - (phase_ns - spans.top_phase_ns());
  return split;
}

}  // namespace perfbench
