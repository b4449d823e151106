#pragma once

#include <cstdint>

#include "poi360/common/json.h"
#include "poi360/core/config.h"

// One point of the joint chaos parameter space: everything a scenario-search
// strategy may vary, in one serializable value. A (ChaosSpec, rate control)
// pair fully determines a session — apply() stamps the fault configs, the
// traffic/motion knobs, the seed and the duration onto a SessionConfig, and
// the JSON round trip is lossless — so every point the search visits can be
// written down, committed to the corpus, and replayed bit-for-bit later.

namespace poi360::search {

/// Cross-traffic / channel conditions (the §6.2 field-condition knobs the
/// search is allowed to move).
struct TrafficSpec {
  double rss_dbm = -73.0;
  double mean_cell_load = 0.15;
  double load_std = 0.08;
  double speed_mph = 0.0;

  common::Json to_json() const;
  static TrafficSpec from_json(const common::Json& j);
};

/// Viewer-motion intensity knobs (subset of roi::HeadMotionParams that
/// shapes ROI churn; the rest stay at the calibrated defaults).
struct MotionSpec {
  double mean_fixation_s = 0.8;
  double peak_velocity_deg_s = 120.0;
  double large_shift_prob = 0.12;
  double pursuit_prob = 0.5;

  common::Json to_json() const;
  static MotionSpec from_json(const common::Json& j);
};

/// Receiver-side bounded-recovery knobs. The default is the *hardened*
/// receiver (finite NACK budget with backoff, 600 ms abandonment deadline)
/// rather than the legacy unbounded one: the abandon -> PLI and NACK
/// give-up recovery paths are part of the behaviour space the search is
/// meant to cover, and they are unreachable with the preset defaults.
struct RecoverySpec {
  int nack_retry_budget = 4;
  bool nack_backoff = true;
  double frame_deadline_ms = 600.0;
  std::int64_t max_assemblies = 256;
  std::int64_t max_outstanding_nacks = 4096;

  common::Json to_json() const;
  static RecoverySpec from_json(const common::Json& j);
};

/// The full search point. Sub-configs reuse the fault models' own types so
/// a spec can express anything the injectors can do.
struct ChaosSpec {
  std::uint64_t seed = 1000;  // runner::kDefaultSeed0
  double duration_s = 30.0;

  lte::DiagFaultConfig diag{};     // modem diag-feed faults (PR 1)
  net::ChaosConfig media{};        // media-path transport faults (PR 4)
  net::ChaosConfig feedback{};     // feedback/NACK-path transport faults
  TrafficSpec traffic{};
  MotionSpec motion{};
  RecoverySpec recovery{};

  /// Stamps every knob (plus seed and duration) onto `config`, leaving the
  /// unrelated fields untouched — callers pick the base preset and the rate
  /// control under test.
  void apply(core::SessionConfig& config) const;

  /// presets::cellular_static() + apply() + the given rate control: the
  /// canonical single-session realization of this spec.
  core::SessionConfig session(core::RateControl rate_control) const;

  common::Json to_json() const;
  static ChaosSpec from_json(const common::Json& j);
};

}  // namespace poi360::search
