/// \file trace.hpp
/// \brief In-memory span recorder for traced benchmark runs.
///
/// Spans are recorded by t1bench around its calls into each layer
/// (name, start, end, parent span, request id), kept in memory, and
/// written once at exit as Chrome trace-event JSON, which Perfetto and
/// chrome://tracing open directly.  The per-layer metrics of a traced run
/// are derived from the same spans (`self_ms_by_name`), so the file and
/// the reported numbers cannot disagree.  Single-threaded: every span is
/// opened and closed on the main thread of t1bench.

#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "io/json.hpp"

namespace t1bench {

struct Span {
  std::string name;
  std::string detail;   // free-form label, e.g. "mul8/t1" or "edit"
  double start_us = 0;  // since the tracer was created
  double end_us = 0;
  int parent = -1;      // index of the enclosing span, -1 at top level
  long request = -1;    // job or request id the span belongs to
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string name, long request = -1, std::string detail = {});
  /// Closes the innermost open span, which must be `span`.
  void end(int span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name in milliseconds: each span's duration minus
  /// the time its child spans cover, summed over spans of that name.
  std::map<std::string, double> self_ms_by_name() const;

  /// Writes every span as a Chrome trace-event "X" event, with `header`
  /// under "otherData".  Throws ContractError when `path` cannot be opened.
  void write_chrome_json(const std::string& path,
                         const t1map::io::Json& header) const;

 private:
  double now_us() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span that does nothing when the tracer is null, so traced and
/// untraced code paths share one body.
class TraceScope {
 public:
  TraceScope(Tracer* tracer, const char* name, long request = -1,
             std::string detail = {})
      : tracer_(tracer),
        span_(tracer != nullptr
                  ? tracer->begin(name, request, std::move(detail))
                  : -1) {}
  ~TraceScope() {
    if (tracer_ != nullptr) tracer_->end(span_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace t1bench
