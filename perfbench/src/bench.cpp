#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "serve/json_out.hpp"

namespace t1bench {

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, 1.0 * values.size())) -
      1;
  return values[index];
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

t1map::t1::FlowParams params_for_config(const std::string& config) {
  t1map::t1::FlowParams params;  // 4 phases, T1 on, 8 sim rounds
  if (config == "1phi") {
    params.num_phases = 1;
    params.use_t1 = false;
  } else if (config == "nphi") {
    params.use_t1 = false;
  }
  return params;
}

std::string stats_signature(const t1map::t1::FlowStats& stats) {
  std::ostringstream os;
  t1map::serve::flow_stats_json(stats).write(os, -1);
  return os.str();
}

Budget budget_for(const Options& options) {
  Budget budget;
  if (options.trace) {
    budget.untraced_s = 0.5 * options.seconds;
    budget.traced_s = 0.5 * options.seconds;
    budget.min_passes = 2;
  } else {
    budget.untraced_s = options.seconds;
  }
  return budget;
}

}  // namespace t1bench
