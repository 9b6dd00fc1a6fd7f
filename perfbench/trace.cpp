#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

std::uint32_t Tracer::begin(const char* name) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  const std::uint32_t parent = open_.empty() ? 0 : open_.back();
  spans_.push_back(Span{id, parent, run_id_, name, now_ns(), -1});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  // Closing out of order is a harness bug; leave the span open so check()
  // reports it instead of silently re-parenting.
  if (open_.empty() || open_.back() != id) return;
  open_.pop_back();
  spans_[id - 1].end_ns = now_ns();
}

double Tracer::root_seconds(const char* name) const {
  for (const Span& s : spans_) {
    if (s.parent == 0 && std::strcmp(s.name, name) == 0 && s.end_ns >= 0) {
      return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return -1.0;
}

std::vector<double> Tracer::self_seconds() const {
  // Spans nest through a stack on one thread, so siblings never overlap and
  // the covered part of a parent is the sum of its children's durations.
  std::vector<std::int64_t> self(spans_.size());
  for (const Span& s : spans_) self[s.id - 1] = s.end_ns - s.start_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) self[s.parent - 1] -= s.end_ns - s.start_ns;
  }
  std::vector<double> out(self.size());
  for (std::size_t i = 0; i < self.size(); ++i) out[i] = static_cast<double>(self[i]) * 1e-9;
  return out;
}

std::vector<std::string> Tracer::check() const {
  std::vector<std::string> problems;
  auto report = [&](const Span& s, const char* what) {
    char line[160];
    std::snprintf(line, sizeof line, "trace: span %u (%s) %s", s.id, s.name, what);
    problems.emplace_back(line);
  };
  if (!open_.empty()) problems.emplace_back("trace: spans still open at check");
  for (const Span& s : spans_) {
    if (s.run_id != run_id_) report(s, "has a foreign run id");
    if (s.end_ns < s.start_ns) report(s, "was never closed");
    if (s.parent == 0) continue;
    if (s.parent >= s.id) {
      report(s, "names a parent that does not precede it");
      continue;
    }
    const Span& p = spans_[s.parent - 1];
    if (s.start_ns < p.start_ns || (p.end_ns >= 0 && s.end_ns > p.end_ns)) {
      report(s, "is not inside its parent");
    }
  }
  const std::vector<double> self = self_seconds();
  for (const Span& s : spans_) {
    if (self[s.id - 1] < 0.0) report(s, "has negative self time");
  }
  return problems;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id, s.parent);
    out << line;
  }
  out << "],\"otherData\":{\"run_id\":\"" << run_id_ << "\"}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
