#include "spans.h"

#include <cstdio>
#include <stdexcept>

namespace e2e {

int SpanLog::open(const char* name, std::int64_t session) {
  if (!enabled_) return -1;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{.name = name,
                        .start_ns = now_ns(),
                        .end_ns = 0,
                        .parent = open_.empty() ? -1 : open_.back(),
                        .session = session});
  open_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Scoped closes spans in reverse order of opening, also while unwinding.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::append(const SpanLog& other, int parent) {
  if (!enabled_) return;
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    s.parent = s.parent < 0 ? parent : s.parent + base;
    spans_.push_back(s);
  }
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.duration_us());
  }
  return out;
}

double SpanLog::self_us(const std::string& name) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.duration_us();
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) total += spans_[i].duration_us() - child_us[i];
  }
  return total;
}

void write_spans_jsonl(
    const std::string& path,
    const std::vector<std::pair<const char*, const SpanLog*>>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  for (const auto& [rep, log] : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"rep\":\"%s\",\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"session\":%lld}\n",
                   rep, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.session));
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("write failed: " + path);
}

}  // namespace e2e
