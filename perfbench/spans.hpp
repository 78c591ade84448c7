// In-memory span log for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each library layer (nothing under src/ is instrumented). Each span has a
// name, start, end and parent; the log stays in memory while the run works
// and is written out once, at the end. A span's layer is its name up to the
// first '.', e.g. "emu.build_checkpoint_store" belongs to layer "emu".
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    double start_s = 0.0;  ///< seconds since the log was created
    double end_s = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
  };

  /// Open a span nested under the innermost open one; returns its id.
  int open(std::string name);
  /// Close span `id` (must be the innermost open span).
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: every span's duration minus the part of it that
  /// its child spans cover, summed by layer.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  /// Write the spans as Chrome Trace Event JSON (complete events, with the
  /// span id and parent id in "args").
  void write_trace_json(const std::string& path) const;

 private:
  [[nodiscard]] double now() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction. A null log
/// makes it a no-op, so one code path serves the traced and untraced runs.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->open(std::move(name)) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
