// Measurement vocabulary shared by the perfbench workloads: a monotonic
// clock, order statistics, named metrics, and the in-memory span recorder
// used by traced runs.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/sync.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double Now();

/// Median and linear-interpolated percentiles (`q` in [0, 1]); 0 for an
/// empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);

/// Peak resident set size (VmHWM) of a process in MiB; `pid` 0 = self.
/// Returns 0 when /proc is unreadable.
double PeakRssMib(int pid = 0);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One timed call at a layer boundary. Spans are recorded flat; parents are
/// resolved when the trace is written (`LinkParents`): a client `handle`
/// belongs to the `execute` of the same round and client, an `execute` or
/// `consume` to its `round`.
struct Span {
  std::string name;    ///< round | execute | handle | consume
  std::string detail;  ///< Task id, or the algorithm for fit_evaluate.
  double start = 0.0;
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t round = -1;
  int64_t client = -1;
  int64_t worker = -1;
  bool ok = true;

  [[nodiscard]] double seconds() const { return end - start; }
};

/// Thread-safe, append-only span store. Spans stay in memory until the run
/// ends; `WriteJsonLines` writes them with resolved parents.
class Tracer {
 public:
  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

  void Record(Span span);
  [[nodiscard]] std::vector<Span> Snapshot() const;
  /// Resolves `parent` on every span (see Span).
  static void LinkParents(std::vector<Span>& spans);
  /// Per span name: total duration and self time (duration minus the part
  /// covered by child spans).
  static std::map<std::string, std::pair<double, double>> SelfTimes(
      const std::vector<Span>& spans);
  fedfc::Status WriteJsonLines(const std::string& path) const;

 private:
  std::string run_id_;
  mutable fedfc::Mutex mutex_;
  std::vector<Span> spans_ FEDFC_GUARDED_BY(mutex_);
};

/// Calls `fn` `reps` times and returns the median wall time of one call in
/// microseconds.
template <typename Fn>
double MedianMicros(int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = Now();
    fn();
    us.push_back((Now() - t0) * 1e6);
  }
  return Median(std::move(us));
}

std::string JsonEscape(const std::string& s);
/// Shortest round-trip decimal form of a double (17 significant digits).
std::string JsonNumber(double v);
std::string MetricsJson(const Metrics& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
