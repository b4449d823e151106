#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "poi360/common/rng.h"
#include "poi360/common/time.h"
#include "poi360/lte/shared_cell.h"
#include "poi360/obs/metrics_registry.h"
#include "poi360/obs/sampling.h"
#include "poi360/obs/slo.h"
#include "poi360/runner/experiment_spec.h"
#include "poi360/serve/managed_session.h"
#include "poi360/serve/telemetry.h"

// One serving cell: the slot engine behind both serving front doors. A
// vector of ManagedSession slots with their telemetry state, advanced
// together to the master clock, on private radios (SoakDriver: Poisson
// churn) or on one shared proportional-fair radio with voice/FTP
// cross-traffic (FleetCell: a fixed population admitted at t = 0).

namespace poi360::serve {

/// On/off cross-traffic: toggles a registered UE's demand without a full
/// sender/receiver stack. CBR voice (short talk spurts, small PF weight) and
/// FTP bulk (long transfers, full weight) are the two stock profiles.
struct CrossTrafficSpec {
  int count = 0;
  double weight = 1.0;
  SimDuration mean_on = sec(8);
  SimDuration mean_off = sec(12);
};

/// The registry series one population of slots reports into: the soak
/// pool's unlabeled series, or one fleet (cell, rung) label set.
struct PopulationSeries {
  obs::Counter* slo_breach[obs::kSloObjectives] = {};
  obs::Counter* slo_recovered[obs::kSloObjectives] = {};
  obs::BucketHistogram* delay_hist = nullptr;

  /// Registers the per-objective `slo.breach` / `slo.recovered` counters and
  /// the `delay_hist_name` bucket histogram under `labels`.
  static PopulationSeries registered(obs::MetricsRegistry& registry,
                                     const std::string& delay_hist_name,
                                     const obs::Labels& labels);
};

/// One session slot. `series` is null while the telemetry plane is off, and
/// the SLO fields are then never touched.
struct ServingSlot {
  ManagedSession ms;
  std::uint64_t generation = 0;  ///< guards stale departure events
  PopulationSeries* series = nullptr;
  obs::SloTracker slo{};
  std::size_t frame_cursor = 0;  ///< frames already folded into SLO counts
  std::int64_t displayed_seen = 0;
  std::int64_t frozen_frames = 0;
  std::int64_t mismatched = 0;
  std::int64_t over_delay = 0;
  bool traced = false;  ///< sampled: recorder on, exported at close
};

class ServingCell {
 public:
  /// `tracing` turns deterministic trace sampling on for admitted slots.
  ServingCell(std::size_t slots, const TelemetryConfig& telemetry,
              bool tracing);
  ServingCell(const ServingCell&) = delete;
  ServingCell& operator=(const ServingCell&) = delete;

  /// Puts every slot on one shared PF radio: registers `session_ues`
  /// unit-weight UEs first (UE i serves slot i), then the cross-traffic
  /// sources in order, each drawing its initial phase from `cross_rng`.
  /// Call once, before the first admission.
  void share_radio(const lte::SharedCell::Config& config, std::uint64_t seed,
                   Rng cross_rng, int session_ues,
                   const std::vector<CrossTrafficSpec>& cross_traffic);
  /// The shared radio; valid only after `share_radio`.
  lte::SharedCell& radio() { return radio_->cell; }
  lte::CellHandle ue_handle(int ue) { return {&radio_->cell, ue}; }

  /// Binds `mc` to slot `index`, samples its trace (a pure function of the
  /// session seed: no RNG draw), resets its SLO state when `series` is set,
  /// and activates it at `now`: the slot lands in kActive or kFailed.
  ServingSlot& admit(std::size_t index, ManagedSession::Config mc,
                     SimTime now, PopulationSeries* series);

  /// Advances every active slot to master time `t`. On a shared radio it
  /// first steps the cross-traffic, commits the demand snapshot and trims
  /// the background timeline at the previous boundary, so the shares each
  /// session sees in (previous, t] do not depend on stepping order.
  void advance_to(SimTime t);
  SimTime now() const { return now_; }

  /// Folds the slot's new frames into its SLO counts and its population's
  /// delay histogram; a no-op for a slot with no session.
  void fold_frames(ServingSlot& slot);

  /// Folds, then feeds the slot's SLO tracker its cumulative counts at `t`
  /// and bumps its population's breach/recovery counters (transitions also
  /// land in a sampled session's trace). Returns the frames lost so far:
  /// skipped at the sender plus abandoned by the receiver.
  std::int64_t observe_slo(ServingSlot& slot, SimTime t);

  /// Writes a traced slot's trace under the trace dir as
  /// `runner::trace_file_name(run)` and returns its sampler budget.
  void export_trace(ServingSlot& slot, const runner::RunSpec& run,
                    const std::string& process_name);

  std::vector<ServingSlot>& slots() { return slots_; }
  const std::vector<ServingSlot>& slots() const { return slots_; }
  const obs::TraceSampler& sampler() const { return sampler_; }

 private:
  struct CrossSource {
    int ue = 0;
    bool active = false;
    SimTime toggle_at = 0;
    SimDuration mean_on = 0;
    SimDuration mean_off = 0;
  };
  struct Radio {
    Radio(const lte::SharedCell::Config& config, std::uint64_t seed, Rng rng)
        : cell(config, seed), cross_rng(rng) {}
    lte::SharedCell cell;
    Rng cross_rng;
    std::vector<CrossSource> cross;
  };

  void add_cross_traffic(const CrossTrafficSpec& spec);
  void step_cross_traffic(SimTime t);

  TelemetryConfig telemetry_;
  bool tracing_ = false;
  obs::TraceSampler sampler_;
  std::vector<ServingSlot> slots_;
  std::optional<Radio> radio_;
  SimTime now_ = 0;
};

}  // namespace poi360::serve
