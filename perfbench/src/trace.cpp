#include "trace.hpp"

#include <fstream>

#include "common/require.hpp"

namespace t1bench {

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

int Tracer::begin(std::string name, long request, std::string detail) {
  Span span;
  span.name = std::move(name);
  span.detail = std::move(detail);
  span.start_us = now_us();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int span) {
  T1MAP_REQUIRE(!open_.empty() && open_.back() == span,
                "Tracer::end: spans must close innermost first");
  spans_[static_cast<std::size_t>(span)].end_us = now_us();
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> self_ms;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self_ms[s.name] += (s.end_us - s.start_us - child_us[i]) * 1e-3;
  }
  return self_ms;
}

void Tracer::write_chrome_json(const std::string& path,
                               const t1map::io::Json& header) const {
  std::ofstream out(path);
  T1MAP_REQUIRE(out.good(), "cannot open trace file for writing: " + path);
  t1map::io::JsonWriter w(out);
  w.begin_object().key("displayTimeUnit").value("ms");
  w.key("otherData").value(header);
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("name").value(s.name).key("cat").value("t1bench");
    w.key("ph").value("X").key("pid").value(1).key("tid").value(1);
    w.key("ts").value(s.start_us).key("dur").value(s.end_us - s.start_us);
    w.key("args").begin_object();
    w.key("id").value(static_cast<double>(i));
    w.key("parent").value(s.parent);
    w.key("request").value(s.request);
    if (!s.detail.empty()) w.key("detail").value(s.detail);
    w.end_object().end_object();
  }
  w.end_array().end_object();
  out << '\n';
  T1MAP_REQUIRE(out.good(), "failed writing trace file: " + path);
}

}  // namespace t1bench
