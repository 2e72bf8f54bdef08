// Tunables of the 4B hybrid estimator.
#pragma once

#include <cstddef>

#include "link/table_estimator.hpp"

namespace fourbit::core {

struct FourBitConfig {
  /// Candidate-link table size. 0 = unbounded.
  std::size_t table_capacity = 10;

  /// Unicast window ku: one ETX sample per ku data transmissions.
  std::size_t unicast_window = 5;

  /// Beacon window kb: one PRR sample per kb expected beacons.
  std::size_t beacon_window = 2;

  /// History weight of the windowed EWMA over beacon reception
  /// probabilities. 2/3 reproduces the 1.0 -> 0.83 step of the paper's
  /// Figure 5 worked example.
  double beacon_prr_history = 2.0 / 3.0;

  /// History weight of the outer EWMA that merges the unicast and beacon
  /// ETX streams. 0.5 reproduces Figure 5's 3.1 / 2.1 / 1.7 / 3.9 values.
  double etx_history = 0.5;

  /// Ceiling on any single ETX sample (a dead link must not poison the
  /// average beyond recovery).
  double max_etx_sample = 16.0;

  /// Beacon-seq reset detection: a mod-256 gap larger than this is
  /// treated as a neighbor reboot (its sequence counter restarted) when
  /// the white bit or the current ack window says the link is alive —
  /// the window resynchronizes instead of charging up to 255 phantom
  /// losses. Without alive evidence the charged loss is capped here
  /// instead. Deliberately looser than the 2*beacon_window rule of
  /// thumb: a genuine loss streak on a bad link can exceed a couple of
  /// windows, and past ~16 expected beacons the PRR sample saturates at
  /// max_etx_sample anyway, so nothing real is lost. 0 disables
  /// detection (the pre-fault-injection behavior).
  std::size_t seq_reset_gap = 16;

  /// Table-admission rule for beacons from unknown senders.
  link::InsertionPolicy insertion = link::InsertionPolicy::kWhiteCompare;

  /// Admission probability when insertion == kProbabilistic.
  double probabilistic_insert_p = 0.25;
};

}  // namespace fourbit::core
