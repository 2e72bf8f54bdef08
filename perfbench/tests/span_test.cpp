// Self-test of the span arithmetic in src/spans.hpp on synthetic nested
// spans read from a fake clock. Exits nonzero on the first failed check.
//
//   perfbench_span_test
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "spans.hpp"

using perfbench::Seam;
using perfbench::SpanStack;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::int64_t self_total(const SpanStack& spans) {
  std::int64_t total = 0;
  for (std::size_t s = 0; s < perfbench::kSeamCount; ++s) {
    total += spans.self_ns(static_cast<Seam>(s));
  }
  return total;
}

/// Hand-computed tree: an estimator call [0,100] holding a compare
/// query [10,40] that holds a MAC send [20,25]; 5 ns of PHY phase run
/// inside the compare query and 10 ns directly inside the estimator.
void known_tree() {
  SpanStack spans;
  spans.enter(Seam::kEstimator, 0, 0);
  spans.enter(Seam::kNetCompare, 10, 0);
  spans.enter(Seam::kMacSend, 20, 0);
  spans.exit(25, 0);
  spans.exit(40, 5);   // phase [30,35]
  spans.exit(100, 15); // phase [50,60]
  check(spans.self_ns(Seam::kMacSend) == 5, "innermost self time");
  check(spans.self_ns(Seam::kNetCompare) == 20, "middle self time");
  check(spans.self_ns(Seam::kEstimator) == 60, "outer self time");
  check(spans.top_ns() == 100 && spans.top_phase_ns() == 15,
        "outermost duration and phase");
  check(self_total(spans) + spans.top_phase_ns() == spans.top_ns(),
        "self times plus phases add up to the outer span");
  check(spans.depth() == 0 && spans.min_self_ns() >= 0, "stack closed");

  // Inside a 200 ns run_for with 150 ns of dispatch and 20 ns of phase.
  const auto split = perfbench::split_run(spans, 200, 150, 20);
  check(split.loop_self_ns == 50, "loop self time");
  check(split.mac_phy_self_ns == 45, "time outside every span and phase");
}

/// Random span trees on a fake clock: self times are never negative, and
/// loop + seam self times + phases + mac_phy equal the run wall exactly.
void random_trees() {
  std::mt19937_64 rng{12345};
  for (int trial = 0; trial < 200; ++trial) {
    SpanStack spans;
    std::int64_t now = 0;
    std::int64_t phase = 0;
    std::int64_t dispatch = 0;
    const auto tick = [&] { now += static_cast<std::int64_t>(rng() % 50); };
    const auto maybe_phase = [&] {
      if (rng() % 3 == 0) {
        const auto d = static_cast<std::int64_t>(rng() % 40);
        now += d;
        phase += d;
      }
    };
    const int events = 1 + static_cast<int>(rng() % 20);
    for (int e = 0; e < events; ++e) {
      now += static_cast<std::int64_t>(rng() % 100);  // loop between events
      const std::int64_t event_begin = now;
      int depth = 0;
      const int steps = static_cast<int>(rng() % 30);
      for (int step = 0; step < steps; ++step) {
        tick();
        maybe_phase();
        if (depth > 0 && rng() % 2 == 0) {
          spans.exit(now, phase);
          --depth;
        } else {
          spans.enter(static_cast<Seam>(rng() % perfbench::kSeamCount), now,
                      phase);
          ++depth;
        }
      }
      while (depth-- > 0) {
        tick();
        maybe_phase();
        spans.exit(now, phase);
      }
      tick();
      maybe_phase();
      dispatch += now - event_begin;
    }
    const std::int64_t run = now + static_cast<std::int64_t>(rng() % 100);
    check(spans.min_self_ns() >= 0, "self time never negative");
    check(self_total(spans) + spans.top_phase_ns() == spans.top_ns(),
          "span tree adds up");
    const auto split = perfbench::split_run(spans, run, dispatch, phase);
    check(split.loop_self_ns >= 0 && split.mac_phy_self_ns >= 0,
          "split never negative");
    check(split.loop_self_ns + self_total(spans) + phase +
                  split.mac_phy_self_ns ==
              run,
          "layers add up to the run wall");
  }
}

}  // namespace

int main() {
  known_tree();
  random_trees();
  if (failures != 0) return 1;
  std::printf("span self-test: ok\n");
  return 0;
}
