// Measuring program of the end-to-end benchmark (run.py builds and invokes
// it). One process runs one workload:
//
//   poi360_e2e --workload W --seed S --seconds T --trace 0|1
//              [--spans-out PATH] [--trace-dir DIR]
//   poi360_e2e --workload W --seed S --probe-setup
//   poi360_e2e --reference fig16-stdout|fleet-rows|fleet-driver|soak-text
//              --seed S
//
// Timed mode repeats the workload's batch (same seed, same inputs) until T
// seconds have passed, at least three times, and prints one JSON object:
// per-repetition CPU and wall time, the modelled metrics of the batch, the
// output-check violations, and with --trace 1 the per-layer metrics: host
// times from an untraced repetition, counts from a traced one. Every
// repetition, traced or not, must reproduce the first one's modelled
// outputs exactly.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "poi360/common/json.h"
#include "spans.h"
#include "workloads.h"

namespace {

using poi360::common::Json;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Rep {
  bool traced = false;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  double session_s = 0.0;
};

Rep timed_rep(const e2e::RunOptions& opts, e2e::SpanLog& log,
              e2e::BatchResult& out) {
  Rep rep;
  rep.traced = opts.traced;
  const double cpu0 = cpu_seconds();
  const std::int64_t wall0 = e2e::now_ns();
  out = e2e::run_batch(opts, log);
  rep.wall_s = static_cast<double>(e2e::now_ns() - wall0) / 1e9;
  rep.cpu_s = cpu_seconds() - cpu0;
  rep.session_s = out.session_seconds;
  return rep;
}

Json to_json(const std::map<std::string, double>& m) {
  Json o = Json::object();
  for (const auto& [k, v] : m) o.set(k, v);
  return o;
}

int usage() {
  std::fprintf(stderr,
               "usage: poi360_e2e --workload W --seed S --seconds T "
               "--trace 0|1 [--spans-out PATH] [--trace-dir DIR]\n"
               "       poi360_e2e --workload W --seed S --probe-setup\n"
               "       poi360_e2e --reference WHAT --seed S\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions opts;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_out;
  std::string reference;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--probe-setup") {
      opts.probe_setup = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (flag == "--workload") opts.workload = v;
    else if (flag == "--seed") opts.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(v);
    else if (flag == "--trace") trace = std::atoi(v);
    else if (flag == "--spans-out") spans_out = v;
    else if (flag == "--trace-dir") opts.trace_dir = v;
    else if (flag == "--reference") reference = v;
    else return usage();
  }

  try {
    if (!reference.empty()) {
      std::fputs(e2e::reference_output(reference, opts.seed).c_str(), stdout);
      return 0;
    }
    if (std::find(e2e::kWorkloads.begin(), e2e::kWorkloads.end(),
                  opts.workload) == e2e::kWorkloads.end()) {
      return usage();
    }
    if (opts.probe_setup) {
      e2e::SpanLog log;
      e2e::run_batch(opts, log);  // exits at the first simulated step
      std::fprintf(stderr, "poi360_e2e: workload never stepped\n");
      return 1;
    }
    if (trace == 1 && opts.trace_dir.empty()) {
      std::fprintf(stderr, "poi360_e2e: --trace 1 needs --trace-dir\n");
      return 2;
    }

    // Timed repetitions. With --trace 1 every repetition records host spans
    // and they alternate between recorders off (host times) and recorders
    // on (counts, stage waits), so the tracing overhead is measured in the
    // same process.
    const std::int64_t deadline =
        e2e::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    constexpr int kMinReps = 3;
    std::vector<Rep> reps;
    e2e::BatchResult first;
    e2e::BatchResult timed_result;
    e2e::BatchResult traced_result;
    e2e::SpanLog timed_log;
    e2e::SpanLog traced_log;
    std::vector<std::string> violations;
    bool digests_equal = true;
    while (static_cast<int>(reps.size()) < kMinReps ||
           e2e::now_ns() < deadline) {
      e2e::RunOptions rep_opts = opts;
      rep_opts.traced = trace == 1 && reps.size() % 2 == 1;
      e2e::BatchResult r;
      e2e::SpanLog log(trace == 1);
      reps.push_back(timed_rep(rep_opts, log, r));
      (rep_opts.traced ? traced_log : timed_log) = std::move(log);
      if (reps.size() == 1) {
        first = r;
        violations = r.violations;
      } else if (r.digest_text != first.digest_text) {
        digests_equal = false;
        violations.push_back(std::string("modelled outputs differ between ") +
                             (rep_opts.traced ? "traced" : "untraced") +
                             " repetitions of one seed");
      }
      (rep_opts.traced ? traced_result : timed_result) = std::move(r);
    }

    std::vector<double> rate[2];
    for (const Rep& r : reps) rate[r.traced].push_back(r.session_s / r.cpu_s);
    Json out = Json::object();
    out.set("workload", opts.workload);
    out.set("seed", opts.seed);
    out.set("workers", first.workers);
    out.set("attempted", first.attempted);
    out.set("failed", first.failed);
    out.set("session_seconds", first.session_seconds);
    out.set("sim_rate", e2e::median(rate[0]));
    out.set("peak_rss_mb", peak_rss_mb());
    Json rep_list = Json::array();
    for (const Rep& r : reps) {
      Json o = Json::object();
      o.set("traced", r.traced);
      o.set("cpu_s", r.cpu_s);
      o.set("wall_s", r.wall_s);
      o.set("session_s", r.session_s);
      rep_list.push_back(std::move(o));
    }
    out.set("reps", std::move(rep_list));
    out.set("qoe", to_json(first.qoe));
    out.set("digests_equal", digests_equal);
    if (trace == 1) {
      // Counts from the traced repetition, host times from the untraced one.
      std::map<std::string, double> layer = traced_result.layer;
      for (const auto& [name, value] : timed_result.layer) layer[name] = value;
      layer["obs.trace_overhead"] =
          e2e::median(rate[0]) / e2e::median(rate[1]) - 1.0;
      if (layer["obs.trace_dropped"] != 0.0) {
        violations.push_back("traced run dropped trace events");
      }
      out.set("layer", to_json(layer));
      if (!spans_out.empty()) {
        e2e::write_spans_jsonl(spans_out, {{"untraced", &timed_log},
                                           {"traced", &traced_log}});
      }
    }
    Json v = Json::array();
    for (const std::string& s : violations) v.push_back(s);
    out.set("violations", std::move(v));
    std::printf("%s\n", out.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "poi360_e2e: %s\n", e.what());
    return 1;
  }
}
