// In-memory span recorder for the traced perfbench run.
//
// The benchmark wraps each call it makes into a layer's public functions in
// a span (name, start, end, parent, run id).  Spans nest through an open-span
// stack, so a span's parent is whatever span was open when it began.  The
// recorder keeps everything in memory; check() validates the tree and
// write_chrome_json() exports it as Chrome trace-event JSON (loadable in
// Perfetto or about://tracing) once the run is over.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::uint32_t id{0};
    std::uint32_t parent{0};  ///< 0 = root
    std::uint64_t run_id{0};
    const char* name{""};
    std::int64_t start_ns{0};
    std::int64_t end_ns{-1};  ///< -1 while open
  };

  explicit Tracer(std::uint64_t run_id) : run_id_{run_id} {}

  /// Opens a span under the innermost open span; returns its id.
  std::uint32_t begin(const char* name);
  /// Closes span `id`, which must be the innermost open span.
  void end(std::uint32_t id);

  /// Runs `fn` inside a span named `name`; returns the span's seconds.
  template <typename F>
  double timed(const char* name, F&& fn) {
    const std::uint32_t id = begin(name);
    std::forward<F>(fn)();
    end(id);
    const Span& s = spans_[id - 1];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Seconds of the first root span named `name`, or -1 if none.
  [[nodiscard]] double root_seconds(const char* name) const;
  /// Well-formedness: every span closed, every parent exists and was opened
  /// before its child, children lie inside their parent, one run id, self
  /// time >= 0.  Returns one line per problem.
  [[nodiscard]] std::vector<std::string> check() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  /// Span duration minus the part of it its children cover, in seconds.
  [[nodiscard]] std::vector<double> self_seconds() const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

}  // namespace perfbench
