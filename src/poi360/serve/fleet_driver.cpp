#include "poi360/serve/fleet_driver.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "poi360/common/stats.h"
#include "poi360/common/table.h"
#include "poi360/runner/batch_runner.h"
#include "poi360/runner/experiment_spec.h"

namespace poi360::serve {

namespace {

FleetPercentiles percentiles_of(const SampleSet& samples) {
  FleetPercentiles p;
  if (samples.empty()) return p;
  p.p10 = samples.percentile(0.10);
  p.p50 = samples.percentile(0.50);
  p.p90 = samples.percentile(0.90);
  p.p99 = samples.percentile(0.99);
  return p;
}

std::string percentiles_text(const FleetPercentiles& p, int decimals) {
  return "p10=" + fmt(p.p10, decimals) + " p50=" + fmt(p.p50, decimals) +
         " p90=" + fmt(p.p90, decimals) + " p99=" + fmt(p.p99, decimals);
}

std::string percentiles_json(const FleetPercentiles& p, int decimals) {
  return "{\"p10\": " + fmt(p.p10, decimals) + ", \"p50\": " +
         fmt(p.p50, decimals) + ", \"p90\": " + fmt(p.p90, decimals) +
         ", \"p99\": " + fmt(p.p99, decimals) + "}";
}

}  // namespace

std::string to_string(const FleetRung& rung) {
  return core::to_string(rung.rate_control) + "/" +
         core::to_string(rung.compression);
}

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 0.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

FleetCell::FleetCell(const FleetConfig& config, int cell_index,
                     TelemetryPlane* plane)
    : config_(config),
      cell_index_(cell_index),
      cell_(static_cast<std::size_t>(std::max(1, config.sessions_per_cell)),
            config.telemetry, plane && config.telemetry.tracing_on()),
      plane_(plane) {
  if (config_.ladder.empty()) {
    throw std::invalid_argument("fleet ladder must not be empty");
  }
  cell_.share_radio(
      config_.cell,
      Rng(config_.seed)
          .fork(0xF1EE7u + static_cast<std::uint64_t>(cell_index))
          .engine()(),
      Rng(config_.seed).fork(0xCB05u).fork(
          static_cast<std::uint64_t>(cell_index)),
      sessions(), {config_.voice, config_.ftp});
  if (plane_) register_telemetry();
}

void FleetCell::register_telemetry() {
  const std::string cell_label = std::to_string(cell_index_);
  next_publish_ =
      std::max<SimDuration>(msec(1), config_.telemetry.publish_period);

  telemetry_.set_help("fleet.freeze_ratio",
                      "Frozen-frame ratio per (cell, rung) population");
  // One series per distinct rung label among the ladder positions in use,
  // so the series count is bounded by the ladder, not the population.
  const std::size_t used = std::min<std::size_t>(
      config_.ladder.size(), static_cast<std::size_t>(sessions()));
  for (std::size_t l = 0; l < used; ++l) {
    const std::string rung = to_string(config_.ladder[l]);
    std::size_t seen = 0;
    while (seen < l && to_string(config_.ladder[seen]) != rung) ++seen;
    if (seen < l) {
      ladder_rung_.push_back(ladder_rung_[seen]);
      continue;
    }
    const obs::Labels labels{{"cell", cell_label}, {"rung", rung}};
    RungSeries series;
    series.population = PopulationSeries::registered(
        telemetry_, "fleet.frame.delay_hist", labels);
    series.sessions = &telemetry_.gauge("fleet.sessions", labels);
    series.freeze_ratio = &telemetry_.gauge("fleet.freeze_ratio", labels);
    series.mismatch_ratio = &telemetry_.gauge("fleet.mismatch_ratio", labels);
    series.mean_delay_ms = &telemetry_.gauge("fleet.mean_delay_ms", labels);
    series.displayed = &telemetry_.gauge("fleet.displayed_frames", labels);
    ladder_rung_.push_back(rung_series_.size());
    rung_series_.push_back(series);
  }
  if (config_.telemetry.tracing_on()) {
    const obs::Labels labels{{"cell", cell_label}};
    telemetry_.counter("fleet.trace.kept", labels);
    telemetry_.counter("fleet.trace.sampled_out", labels);
    telemetry_.counter("fleet.trace.budget_rejected", labels);
  }
}

void FleetCell::start() {
  const int n = sessions();
  for (int i = 0; i < n; ++i) {
    const FleetRung& rung = rung_of(static_cast<std::size_t>(i));
    ManagedSession::Config mc;
    mc.id = i;
    mc.planned_duration = config_.duration;
    core::SessionConfig& sc = mc.session;
    sc = config_.session;
    sc.network = core::NetworkType::kCellular;
    sc.rate_control = rung.rate_control;
    sc.compression = rung.compression;
    sc.duration = config_.duration;
    sc.seed = runner::derive_seed(config_.seed, cell_index_ * n + i);
    // The shared cell is the only contention source: the private OU load
    // and explicit multi-user models would double-count the competition.
    sc.channel.explicit_users = -1;
    sc.channel.mean_cell_load = 0.0;
    sc.channel.load_std = 0.0;
    sc.cell_handle = cell_.ue_handle(i);
    cell_.admit(static_cast<std::size_t>(i), std::move(mc), 0,
                plane_ ? &rung_series_[rung_index(i)].population : nullptr);
  }
  cell_.radio().commit_demand();
}

void FleetCell::advance_to(SimTime t) {
  cell_.advance_to(t);
  if (plane_ && t >= next_publish_) {
    publish_telemetry(t);
    while (next_publish_ <= t) {
      next_publish_ +=
          std::max<SimDuration>(msec(1), config_.telemetry.publish_period);
    }
  }
}

void FleetCell::publish_telemetry(SimTime t) {
  struct RungAgg {
    std::int64_t sessions = 0;
    std::int64_t displayed = 0;
    std::int64_t frozen = 0;
    std::int64_t lost = 0;
    std::int64_t mismatched = 0;
    double delay_sum_ms = 0.0;
  };
  std::vector<RungAgg> agg(rung_series_.size());

  std::vector<ServingSlot>& slots = cell_.slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ServingSlot& slot = slots[i];
    if (slot.ms.state() == SessionState::kFailed) continue;
    const std::int64_t lost = cell_.observe_slo(slot, t);
    RungAgg& a = agg[rung_index(i)];
    ++a.sessions;
    a.displayed += slot.displayed_seen;
    a.frozen += slot.frozen_frames;
    a.lost += lost;
    a.mismatched += slot.mismatched;
    const obs::Histogram* delay_h =
        slot.ms.session()->metrics().registry().find_histogram(
            "frame.delay_ms");
    if (delay_h) a.delay_sum_ms += delay_h->sum();
  }

  for (std::size_t r = 0; r < rung_series_.size(); ++r) {
    const RungAgg& a = agg[r];
    RungSeries& series = rung_series_[r];
    series.sessions->set(static_cast<double>(a.sessions));
    series.displayed->set(static_cast<double>(a.displayed));
    const std::int64_t handled = a.displayed + a.lost;
    series.freeze_ratio->set(
        handled > 0 ? static_cast<double>(a.frozen + a.lost) /
                          static_cast<double>(handled)
                    : 0.0);
    series.mismatch_ratio->set(
        a.displayed > 0 ? static_cast<double>(a.mismatched) /
                              static_cast<double>(a.displayed)
                        : 0.0);
    series.mean_delay_ms->set(
        a.displayed > 0 ? a.delay_sum_ms / static_cast<double>(a.displayed)
                        : 0.0);
  }
  if (config_.telemetry.tracing_on()) {
    const obs::Labels labels{{"cell", std::to_string(cell_index_)}};
    const obs::TraceSampler& sampler = cell_.sampler();
    telemetry_.counter("fleet.trace.kept", labels).set(sampler.kept());
    telemetry_.counter("fleet.trace.sampled_out", labels)
        .set(sampler.sampled_out());
    telemetry_.counter("fleet.trace.budget_rejected", labels)
        .set(sampler.budget_rejected());
  }
  plane_->publish(telemetry_);
}

void FleetCell::finish() {
  for (ServingSlot& slot : cell_.slots()) slot.ms.drain(cell_.now());
  if (!plane_) return;
  publish_telemetry(cell_.now());
  std::vector<ServingSlot>& slots = cell_.slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ServingSlot& slot = slots[i];
    if (!slot.traced || slot.ms.state() == SessionState::kFailed) continue;
    runner::RunSpec rs;
    rs.run_id = cell_index_ * sessions() + static_cast<int>(i);
    rs.experiment = "fleet";
    rs.params = {{"cell", std::to_string(cell_index_)},
                 {"slot", std::to_string(i)},
                 {"rung", to_string(rung_of(i))}};
    rs.seed = slot.ms.config().session.seed;
    cell_.export_trace(slot, rs, "fleet/cell=" + std::to_string(cell_index_) +
                                    "/slot=" + std::to_string(i));
  }
}

std::vector<FleetSessionResult> FleetCell::results() const {
  std::vector<FleetSessionResult> out;
  out.reserve(cell_.slots().size());
  for (std::size_t i = 0; i < cell_.slots().size(); ++i) {
    const ManagedSession& ms = cell_.slots()[i].ms;
    FleetSessionResult r;
    r.cell = cell_index_;
    r.index = static_cast<int>(i);
    r.seed = ms.config().session.seed;
    r.rung = to_string(rung_of(i));
    r.ok = ms.state() != SessionState::kFailed && ms.session();
    r.error = ms.error();
    if (r.ok) {
      const metrics::SessionMetrics& m = ms.session()->metrics();
      r.displayed_frames = m.displayed_frames();
      r.mean_throughput_mbps = m.mean_throughput() / 1e6;
      r.freeze_ratio = m.freeze_ratio(config_.session.freeze_threshold);
      std::int64_t mismatched = 0;
      for (const metrics::FrameRecord& f : m.frames()) {
        if (f.roi_mismatch) ++mismatched;
      }
      r.mismatch_ratio =
          m.frames().empty()
              ? 0.0
              : static_cast<double>(mismatched) /
                    static_cast<double>(m.frames().size());
      const SampleSet delays = m.frame_delays_ms();
      if (!delays.empty()) {
        r.mean_delay_ms = delays.mean();
        r.p95_delay_ms = delays.percentile(0.95);
      }
      r.mean_roi_psnr_db = m.mean_roi_psnr();
    }
    out.push_back(std::move(r));
  }
  return out;
}

FleetDriver::FleetDriver(FleetConfig config) : config_(std::move(config)) {}

FleetSummary FleetDriver::run() {
  if (ran_) throw std::logic_error("FleetDriver::run may be called once");
  ran_ = true;

  const int cells = std::max(1, config_.cells);
  const SimDuration quantum =
      std::max<SimDuration>(msec(1), config_.advance_quantum);
  std::vector<std::vector<FleetSessionResult>> per_cell(
      static_cast<std::size_t>(cells));

  if (config_.telemetry.telemetry_on()) {
    plane_ = std::make_unique<TelemetryPlane>(config_.telemetry);
  }

  // Each cell is self-contained (own SharedCell, own sessions, own RNG
  // streams derived from (seed, cell index)), so sharding cells across
  // workers cannot change any cell's results — only the wall clock. Cells
  // publish disjoint label sets into the plane, so the merged master
  // registry is also identical for every worker count.
  runner::BatchRunner::parallel_for(
      config_.jobs, static_cast<std::size_t>(cells), [&](std::size_t c) {
        FleetCell cell(config_, static_cast<int>(c), plane_.get());
        cell.start();
        SimTime t = 0;
        while (t < config_.duration) {
          t = std::min<SimTime>(t + quantum, config_.duration);
          cell.advance_to(t);
        }
        cell.finish();
        per_cell[c] = cell.results();
      });

  FleetSummary s;
  s.seed = config_.seed;
  s.cells = cells;
  s.sessions_per_cell = std::max(1, config_.sessions_per_cell);
  s.duration = config_.duration;
  for (auto& rows : per_cell) {
    for (FleetSessionResult& r : rows) s.sessions.push_back(std::move(r));
  }

  SampleSet freeze;
  SampleSet mismatch;
  SampleSet delay;
  SampleSet throughput;
  std::vector<std::string> rung_order;
  std::vector<std::vector<double>> rung_throughput;
  for (const FleetSessionResult& r : s.sessions) {
    if (!r.ok) {
      ++s.failed_sessions;
      continue;
    }
    freeze.add(r.freeze_ratio);
    mismatch.add(r.mismatch_ratio);
    delay.add(r.mean_delay_ms);
    throughput.add(r.mean_throughput_mbps);
    auto it = std::find(rung_order.begin(), rung_order.end(), r.rung);
    if (it == rung_order.end()) {
      rung_order.push_back(r.rung);
      rung_throughput.emplace_back();
      it = rung_order.end() - 1;
    }
    rung_throughput[static_cast<std::size_t>(it - rung_order.begin())]
        .push_back(r.mean_throughput_mbps);
  }
  s.freeze = percentiles_of(freeze);
  s.mismatch = percentiles_of(mismatch);
  s.delay_ms = percentiles_of(delay);
  s.mean_throughput_mbps = throughput.empty() ? 0.0 : throughput.mean();
  s.jain_all = jain_index(throughput.samples());
  for (std::size_t i = 0; i < rung_order.size(); ++i) {
    s.jain_by_rung.emplace_back(rung_order[i],
                                jain_index(rung_throughput[i]));
  }
  return s;
}

std::string to_text(const FleetSummary& s) {
  std::string out;
  out += "fleet summary: seed=" + std::to_string(s.seed) +
         " cells=" + std::to_string(s.cells) +
         " sessions_per_cell=" + std::to_string(s.sessions_per_cell) +
         " duration_s=" + fmt(to_seconds(s.duration), 0) +
         " sessions=" + std::to_string(s.sessions.size()) +
         " failed=" + std::to_string(s.failed_sessions) + "\n";
  out += "  freeze_ratio   : " + percentiles_text(s.freeze, 4) + "\n";
  out += "  mismatch_ratio : " + percentiles_text(s.mismatch, 4) + "\n";
  out += "  frame_delay_ms : " + percentiles_text(s.delay_ms, 1) + "\n";
  out += "  throughput     : mean_mbps=" +
         fmt(s.mean_throughput_mbps, 3) +
         " jain_all=" + fmt(s.jain_all, 4) + "\n";
  for (const auto& [rung, jain] : s.jain_by_rung) {
    out += "  jain[" + rung + "] = " + fmt(jain, 4) + "\n";
  }
  out += "  per-session (cell slot rung seed shown thpt_mbps freeze "
         "mismatch delay_ms p95_ms psnr_db):\n";
  for (const FleetSessionResult& r : s.sessions) {
    char row[256];
    if (r.ok) {
      std::snprintf(row, sizeof(row),
                    "    %3d %4d  %-14s %8llu %6lld %9.3f %7.4f %8.4f "
                    "%8.1f %7.1f %7.2f\n",
                    r.cell, r.index, r.rung.c_str(),
                    static_cast<unsigned long long>(r.seed),
                    static_cast<long long>(r.displayed_frames),
                    r.mean_throughput_mbps, r.freeze_ratio, r.mismatch_ratio,
                    r.mean_delay_ms, r.p95_delay_ms, r.mean_roi_psnr_db);
      out += row;
    } else {
      std::snprintf(row, sizeof(row), "    %3d %4d  %-14s %8llu  FAILED: ",
                    r.cell, r.index, r.rung.c_str(),
                    static_cast<unsigned long long>(r.seed));
      out += row;
      out += r.error + "\n";
    }
  }
  return out;
}

std::string to_json(const FleetSummary& s) {
  std::string out = "{\n";
  out += "  \"schema\": \"poi360.fleet.v1\",\n";
  out += "  \"seed\": " + std::to_string(s.seed) + ",\n";
  out += "  \"cells\": " + std::to_string(s.cells) + ",\n";
  out += "  \"sessions_per_cell\": " + std::to_string(s.sessions_per_cell) +
         ",\n";
  out += "  \"duration_s\": " + fmt(to_seconds(s.duration), 3) + ",\n";
  out += "  \"failed_sessions\": " + std::to_string(s.failed_sessions) +
         ",\n";
  out += "  \"freeze_ratio\": " + percentiles_json(s.freeze, 6) + ",\n";
  out += "  \"mismatch_ratio\": " + percentiles_json(s.mismatch, 6) +
         ",\n";
  out += "  \"frame_delay_ms\": " + percentiles_json(s.delay_ms, 3) +
         ",\n";
  out += "  \"mean_throughput_mbps\": " +
         fmt(s.mean_throughput_mbps, 6) + ",\n";
  out += "  \"jain_all\": " + fmt(s.jain_all, 6) + ",\n";
  out += "  \"jain_by_rung\": {";
  for (std::size_t i = 0; i < s.jain_by_rung.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + s.jain_by_rung[i].first +
           "\": " + fmt(s.jain_by_rung[i].second, 6);
  }
  out += "},\n";
  out += "  \"sessions\": [\n";
  for (std::size_t i = 0; i < s.sessions.size(); ++i) {
    const FleetSessionResult& r = s.sessions[i];
    out += "    {\"cell\": " + std::to_string(r.cell) +
           ", \"slot\": " + std::to_string(r.index) +
           ", \"rung\": \"" + r.rung + "\"" +
           ", \"seed\": " + std::to_string(r.seed) +
           ", \"ok\": " + (r.ok ? "true" : "false") +
           ", \"displayed\": " + std::to_string(r.displayed_frames) +
           ", \"thpt_mbps\": " + fmt(r.mean_throughput_mbps, 6) +
           ", \"freeze\": " + fmt(r.freeze_ratio, 6) +
           ", \"mismatch\": " + fmt(r.mismatch_ratio, 6) +
           ", \"delay_ms\": " + fmt(r.mean_delay_ms, 3) +
           ", \"p95_ms\": " + fmt(r.p95_delay_ms, 3) +
           ", \"psnr_db\": " + fmt(r.mean_roi_psnr_db, 3) + "}";
    out += (i + 1 < s.sessions.size()) ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace poi360::serve
