#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "poi360/common/time.h"
#include "poi360/obs/metrics_http.h"
#include "poi360/obs/metrics_registry.h"
#include "poi360/obs/sampling.h"
#include "poi360/obs/slo.h"

// The serving layer's live telemetry plane. Everything here is opt-in: with
// `enabled` false and no metrics port, the drivers register no extra
// metrics, draw no extra RNG, and produce byte-identical summaries — the
// determinism contract the bench CI diffs. With it on, the drivers expose
// labeled families, SLO burn-rate counters and bucket histograms, and
// (optionally) a real scrape socket + sampled per-session trace export.

namespace poi360::serve {

struct TelemetryConfig {
  /// Master switch for the labeled families / SLO engine / bucket
  /// histograms. Off by default: the soak/fleet summaries print registry
  /// entry counts, so any extra registration would change stdout.
  bool enabled = false;

  /// TCP port for the /metrics endpoint; -1 = no server, 0 = ephemeral
  /// (the driver reports the kernel's pick). Setting a port implies
  /// `enabled`.
  int metrics_port = -1;

  obs::SloConfig slo{};

  /// When non-empty, sampled sessions run with tracing on and export one
  /// trace file each under this directory (must exist).
  std::string trace_dir;
  obs::TraceSampleConfig trace_sampling{};

  /// Fleet only: how often each cell publishes its registry to the plane.
  SimDuration publish_period = sec(5);

  bool telemetry_on() const { return enabled || metrics_port >= 0; }
  bool tracing_on() const { return !trace_dir.empty(); }
};

/// Shared scrape endpoint: a master registry plus a pre-rendered snapshot
/// behind a real socket. The soak driver (single-threaded) publishes its
/// own registry's rendered text; fleet cells (one per worker thread) publish
/// whole registries that are overwritten into the master under a mutex —
/// cells own disjoint label sets, so publishes are idempotent per cell and
/// the final master is identical for every --jobs value.
class TelemetryPlane {
 public:
  explicit TelemetryPlane(const TelemetryConfig& config);
  ~TelemetryPlane();

  const TelemetryConfig& config() const { return config_; }
  /// Actual bound port, or -1 when no server is running.
  int metrics_port() const { return server_ ? server_->port() : -1; }
  std::int64_t scrapes_served() const {
    return server_ ? server_->requests_served() : 0;
  }

  /// Merges `src` into the master registry (overwrite semantics) and
  /// re-renders the scrape snapshot. Safe from any worker thread.
  void publish(const obs::MetricsRegistry& src);

  /// Swaps in externally rendered exposition text (soak path: the driver's
  /// own registry is the master and is rendered on its snapshot tick).
  void publish_rendered(std::string text);

  /// The merged master registry. Read only when publishers are quiescent
  /// (after run()).
  const obs::MetricsRegistry& registry() const { return master_; }

 private:
  TelemetryConfig config_;
  std::mutex mu_;
  obs::MetricsRegistry master_;
  std::unique_ptr<obs::MetricsHttpServer> server_;
};

}  // namespace poi360::serve
