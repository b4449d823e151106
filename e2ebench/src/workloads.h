#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

// The four benchmark workloads. Each is a closed batch: a fixed amount of
// simulated calling generated from the workload seed, run to completion in
// this process. The simulator receives only the generated configs.

namespace e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Session trace recorders and FleetDriver/SoakDriver trace export on; the
  /// batch then reports the per-layer counts and stage waits. Host spans
  /// are separate: they are on when the SpanLog passed to run_batch is
  /// enabled, and the batch then reports the per-layer host times.
  bool traced = false;
  /// Directory for the fleet and soak sampled trace export
  /// (traced runs only; created and emptied by run_batch).
  std::string trace_dir;
  /// Exit the process at the workload's first simulated step, printing the
  /// steady-clock time (set-up probe).
  bool probe_setup = false;
};

struct BatchResult {
  double session_seconds = 0.0;  ///< simulated call-seconds in the batch
  std::int64_t attempted = 0;    ///< sessions started
  std::int64_t failed = 0;       ///< sessions that threw or were killed
  /// Canonical text of every modelled output; equal text = equal outputs.
  std::string digest_text;
  /// Modelled end-to-end metrics the workload exposes (name -> value).
  std::map<std::string, double> qoe;
  /// Per-layer metrics: host times when spans are on, counts when traced.
  std::map<std::string, double> layer;
  /// Output-check violations; empty = outputs correct.
  std::vector<std::string> violations;
  int workers = 1;
};

extern const std::vector<std::string> kWorkloads;

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Runs one batch of `opts.workload`. Spans go to `log` when it is enabled.
BatchResult run_batch(const RunOptions& opts, SpanLog& log);

/// Reference renderings for the equivalence self-test:
///   fig16-stdout  bench_fig16_fbcc_vs_gcc's stdout, computed through the
///                 benchmark's sliced session loop (its seeds and repeats)
///   fleet-rows    the benchmark's fleet rows, in FleetDriver text format
///   fleet-driver  the same rows from FleetDriver::run on the same config
///   soak-text     the soak summary text of the benchmark's soak workload
std::string reference_output(const std::string& what, std::uint64_t seed);

}  // namespace e2e
