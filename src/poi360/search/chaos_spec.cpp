#include "poi360/search/chaos_spec.h"

#include "poi360/lte/diag_fault_json.h"
#include "poi360/net/chaos_json.h"

namespace poi360::search {

using common::Json;

Json TrafficSpec::to_json() const {
  Json j = Json::object();
  j.set("rss_dbm", rss_dbm);
  j.set("mean_cell_load", mean_cell_load);
  j.set("load_std", load_std);
  j.set("speed_mph", speed_mph);
  return j;
}

TrafficSpec TrafficSpec::from_json(const Json& j) {
  TrafficSpec t;
  t.rss_dbm = j.get_double("rss_dbm", t.rss_dbm);
  t.mean_cell_load = j.get_double("mean_cell_load", t.mean_cell_load);
  t.load_std = j.get_double("load_std", t.load_std);
  t.speed_mph = j.get_double("speed_mph", t.speed_mph);
  return t;
}

Json MotionSpec::to_json() const {
  Json j = Json::object();
  j.set("mean_fixation_s", mean_fixation_s);
  j.set("peak_velocity_deg_s", peak_velocity_deg_s);
  j.set("large_shift_prob", large_shift_prob);
  j.set("pursuit_prob", pursuit_prob);
  return j;
}

MotionSpec MotionSpec::from_json(const Json& j) {
  MotionSpec m;
  m.mean_fixation_s = j.get_double("mean_fixation_s", m.mean_fixation_s);
  m.peak_velocity_deg_s =
      j.get_double("peak_velocity_deg_s", m.peak_velocity_deg_s);
  m.large_shift_prob = j.get_double("large_shift_prob", m.large_shift_prob);
  m.pursuit_prob = j.get_double("pursuit_prob", m.pursuit_prob);
  return m;
}

Json RecoverySpec::to_json() const {
  Json j = Json::object();
  j.set("nack_retry_budget", nack_retry_budget);
  j.set("nack_backoff", nack_backoff);
  j.set("frame_deadline_ms", frame_deadline_ms);
  j.set("max_assemblies", max_assemblies);
  j.set("max_outstanding_nacks", max_outstanding_nacks);
  return j;
}

RecoverySpec RecoverySpec::from_json(const Json& j) {
  RecoverySpec r;
  r.nack_retry_budget = static_cast<int>(
      j.get_i64("nack_retry_budget", r.nack_retry_budget));
  r.nack_backoff = j.get_bool("nack_backoff", r.nack_backoff);
  r.frame_deadline_ms = j.get_double("frame_deadline_ms", r.frame_deadline_ms);
  r.max_assemblies = j.get_i64("max_assemblies", r.max_assemblies);
  r.max_outstanding_nacks =
      j.get_i64("max_outstanding_nacks", r.max_outstanding_nacks);
  return r;
}

void ChaosSpec::apply(core::SessionConfig& config) const {
  config.seed = seed;
  config.duration = sec_f(duration_s);
  config.diag_faults = diag;
  config.media_chaos = media;
  config.feedback_chaos = feedback;
  config.channel.rss_dbm = traffic.rss_dbm;
  config.channel.mean_cell_load = traffic.mean_cell_load;
  config.channel.load_std = traffic.load_std;
  config.channel.speed_mph = traffic.speed_mph;
  config.head_motion.mean_fixation_s = motion.mean_fixation_s;
  config.head_motion.peak_velocity_deg_s = motion.peak_velocity_deg_s;
  config.head_motion.large_shift_prob = motion.large_shift_prob;
  config.head_motion.pursuit_prob = motion.pursuit_prob;
  config.receiver.nack_retry_budget = recovery.nack_retry_budget;
  config.receiver.nack_backoff = recovery.nack_backoff;
  config.receiver.frame_deadline = sec_f(recovery.frame_deadline_ms / 1000.0);
  config.receiver.max_assemblies =
      static_cast<std::size_t>(recovery.max_assemblies);
  config.receiver.max_outstanding_nacks =
      static_cast<std::size_t>(recovery.max_outstanding_nacks);
}

core::SessionConfig ChaosSpec::session(core::RateControl rate_control) const {
  core::SessionConfig config = core::presets::cellular_static();
  apply(config);
  config.rate_control = rate_control;
  return config;
}

Json ChaosSpec::to_json() const {
  Json j = Json::object();
  j.set("seed", seed);
  j.set("duration_s", duration_s);
  j.set("diag", lte::to_json(diag));
  j.set("media", net::to_json(media));
  j.set("feedback", net::to_json(feedback));
  j.set("traffic", traffic.to_json());
  j.set("motion", motion.to_json());
  j.set("recovery", recovery.to_json());
  return j;
}

ChaosSpec ChaosSpec::from_json(const Json& j) {
  ChaosSpec s;
  s.seed = j.get_u64("seed", s.seed);
  s.duration_s = j.get_double("duration_s", s.duration_s);
  if (j.has("diag")) s.diag = lte::diag_fault_config_from_json(j.at("diag"));
  if (j.has("media")) s.media = net::chaos_config_from_json(j.at("media"));
  if (j.has("feedback")) {
    s.feedback = net::chaos_config_from_json(j.at("feedback"));
  }
  if (j.has("traffic")) s.traffic = TrafficSpec::from_json(j.at("traffic"));
  if (j.has("motion")) s.motion = MotionSpec::from_json(j.at("motion"));
  if (j.has("recovery")) {
    s.recovery = RecoverySpec::from_json(j.at("recovery"));
  }
  return s;
}

}  // namespace poi360::search
