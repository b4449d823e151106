#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

// Host-time spans recorded by the benchmark around each call it makes into
// the simulator's layers. A SpanLog belongs to one thread; logs of parallel
// tasks are appended into the main log once the tasks have joined. With
// the log disabled every call is a single branch, so the untimed and timed
// paths execute the same simulator calls.

namespace e2e {

/// Nanoseconds on the steady clock (CLOCK_MONOTONIC on Linux).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;             ///< index into the same log, -1 = root
  std::int64_t session = -1;   ///< simulated session id, -1 = none
  double duration_us() const { return (end_ns - start_ns) / 1e3; }
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int open(const char* name, std::int64_t session = -1);
  void close(int index);

  /// Appends `other`'s spans; its roots become children of `parent`.
  void append(const SpanLog& other, int parent);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (µs) of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const;
  /// Σ self time (µs) of spans called `name`: duration minus the time its
  /// direct children cover.
  double self_us(const std::string& name) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Writes the logs as one JSON object per span and line: rep (the label),
/// name, start_ns, end_ns, parent (index within its log), session.
void write_spans_jsonl(
    const std::string& path,
    const std::vector<std::pair<const char*, const SpanLog*>>& logs);

/// RAII span: opens on construction, closes on destruction.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, std::int64_t session = -1)
      : log_(log), index_(log.open(name, session)) {}
  ~Scoped() { log_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace e2e
