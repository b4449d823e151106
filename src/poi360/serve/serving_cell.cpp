#include "poi360/serve/serving_cell.h"

#include <algorithm>

#include "poi360/runner/result_io.h"

namespace poi360::serve {

PopulationSeries PopulationSeries::registered(
    obs::MetricsRegistry& registry, const std::string& delay_hist_name,
    const obs::Labels& labels) {
  PopulationSeries series;
  registry.set_help("slo.breach",
                    "SLO objectives newly breached (fast+slow burn over "
                    "threshold)");
  for (int o = 0; o < obs::kSloObjectives; ++o) {
    obs::Labels slo_labels = labels;
    slo_labels.emplace_back(
        "objective", obs::slo_objective_name(static_cast<obs::SloObjective>(o)));
    series.slo_breach[o] = &registry.counter("slo.breach", slo_labels);
    series.slo_recovered[o] = &registry.counter("slo.recovered", slo_labels);
  }
  series.delay_hist = &registry.bucket_histogram(
      delay_hist_name, obs::BucketHistogram::latency_ms_bounds(), labels);
  return series;
}

ServingCell::ServingCell(std::size_t slots, const TelemetryConfig& telemetry,
                         bool tracing)
    : telemetry_(telemetry),
      tracing_(tracing),
      sampler_(telemetry.trace_sampling),
      slots_(slots) {}

void ServingCell::share_radio(
    const lte::SharedCell::Config& config, std::uint64_t seed, Rng cross_rng,
    int session_ues, const std::vector<CrossTrafficSpec>& cross_traffic) {
  radio_.emplace(config, seed, cross_rng);
  for (int i = 0; i < session_ues; ++i) radio_->cell.register_ue(1.0);
  for (const CrossTrafficSpec& spec : cross_traffic) add_cross_traffic(spec);
}

void ServingCell::add_cross_traffic(const CrossTrafficSpec& spec) {
  for (int i = 0; i < spec.count; ++i) {
    CrossSource src;
    src.ue = radio_->cell.register_ue(std::max(1e-3, spec.weight));
    src.mean_on = std::max<SimDuration>(msec(10), spec.mean_on);
    src.mean_off = std::max<SimDuration>(msec(10), spec.mean_off);
    // Random initial phase, like the cell's background users.
    const double duty = to_seconds(src.mean_on) /
                        (to_seconds(src.mean_on) + to_seconds(src.mean_off));
    src.active = radio_->cross_rng.bernoulli(duty);
    src.toggle_at = sec_f(radio_->cross_rng.exponential(
        to_seconds(src.active ? src.mean_on : src.mean_off)));
    radio_->cell.report_demand(src.ue, src.active ? 1 : 0);
    radio_->cross.push_back(src);
  }
}

void ServingCell::step_cross_traffic(SimTime t) {
  for (CrossSource& src : radio_->cross) {
    while (src.toggle_at <= t) {
      src.active = !src.active;
      src.toggle_at += std::max<SimDuration>(
          msec(10), sec_f(radio_->cross_rng.exponential(to_seconds(
                        src.active ? src.mean_on : src.mean_off))));
    }
    radio_->cell.report_demand(src.ue, src.active ? 1 : 0);
  }
}

ServingSlot& ServingCell::admit(std::size_t index, ManagedSession::Config mc,
                                SimTime now, PopulationSeries* series) {
  ServingSlot& slot = slots_[index];
  // Keep/drop is a pure function of the derived per-session seed — the same
  // contract BatchRunner uses — so the sampled set is identical for any pool
  // size, arrival interleaving or worker count.
  if (tracing_ && sampler_.admit(mc.session.seed)) {
    mc.session.trace.enabled = true;
    mc.session.trace.capacity = telemetry_.trace_sampling.ring_capacity;
    slot.traced = true;
  }
  slot.series = series;
  if (series) {
    slot.slo = obs::SloTracker(telemetry_.slo);
    slot.frame_cursor = 0;
    slot.displayed_seen = 0;
    slot.frozen_frames = 0;
    slot.mismatched = 0;
    slot.over_delay = 0;
  }
  slot.ms.admit(std::move(mc), now);
  slot.ms.activate(now);
  return slot;
}

void ServingCell::advance_to(SimTime t) {
  if (radio_) {
    step_cross_traffic(now_);
    radio_->cell.commit_demand();
    radio_->cell.trim(now_);
  }
  for (ServingSlot& slot : slots_) slot.ms.advance_until(t);
  now_ = t;
}

void ServingCell::fold_frames(ServingSlot& slot) {
  const core::Session* session = slot.ms.session();
  if (!session) return;
  const auto& frames = session->metrics().frames();
  const SimDuration freeze_threshold =
      slot.ms.config().session.freeze_threshold;
  const SimDuration delay_target = telemetry_.slo.delay_target;
  for (; slot.frame_cursor < frames.size(); ++slot.frame_cursor) {
    const metrics::FrameRecord& f = frames[slot.frame_cursor];
    ++slot.displayed_seen;
    if (f.delay > freeze_threshold) ++slot.frozen_frames;
    if (f.roi_mismatch) ++slot.mismatched;
    if (f.delay > delay_target) ++slot.over_delay;
    slot.series->delay_hist->observe(to_millis(f.delay));
  }
}

std::int64_t ServingCell::observe_slo(ServingSlot& slot, SimTime t) {
  fold_frames(slot);
  core::Session& session = *slot.ms.session();
  const std::int64_t lost =
      session.metrics().registry().counter_value("sender.skipped_frames") +
      session.observers().receiver->recovery_stats().frames_abandoned;
  obs::SloSample sample;
  sample.total = slot.displayed_seen + lost;
  sample.frozen = slot.frozen_frames + lost;
  sample.mismatched = slot.mismatched;
  sample.over_delay = slot.over_delay;
  // Breach/recovery instants land in the session's own trace when it was
  // sampled, correlated by the slot's session id.
  const obs::SloTransitions tr = slot.slo.observe(
      t, sample, slot.traced ? session.trace() : nullptr, slot.ms.id());
  for (int o = 0; o < obs::kSloObjectives; ++o) {
    if (tr.breached_now[o]) slot.series->slo_breach[o]->inc();
    if (tr.recovered_now[o]) slot.series->slo_recovered[o]->inc();
  }
  return lost;
}

void ServingCell::export_trace(ServingSlot& slot, const runner::RunSpec& run,
                               const std::string& process_name) {
  const core::Session* session = slot.ms.session();
  if (session && session->trace()) {
    runner::write_trace(
        telemetry_.trace_dir + "/" + runner::trace_file_name(run),
        *session->trace(), process_name);
  }
  sampler_.release();
  slot.traced = false;
}

}  // namespace poi360::serve
