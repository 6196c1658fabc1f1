// Result model shared by the workload runners: named metrics with units,
// the correctness verdict, and the operation counts the JSON line carries.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its span file (inside the checkout).
  std::string out_dir = ".bench_out";
};

struct MetricValue {
  double value = 0;
  std::string unit;
  /// Sample count or how the value was formed, for the human summary.
  std::string basis;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  /// End-to-end metrics (the untraced measurement).
  std::map<std::string, MetricValue> end_to_end;
  /// Figures printed in the human summary only, without a regression
  /// bound: batch latency percentiles and CPU time per transaction follow
  /// host load too closely (see perfbench/METRICS.md).
  std::map<std::string, MetricValue> detail;
  /// Per-layer metrics (only filled by the traced run).
  std::map<std::string, MetricValue> layers;
  /// Deterministic virtual-time results, printed in the human summary.
  std::map<std::string, MetricValue> virtual_metrics;
  /// Human-readable attribution lines from the traced run.
  std::vector<std::string> notes;

  void Fail(const std::string& error) {
    correct = false;
    errors.push_back(error);
  }
};

/// part / whole, or 0 when there is no whole.
inline double Frac(double part, double whole) {
  return whole <= 0 ? 0 : part / whole;
}

/// p in [0, 100], with the repository's Histogram percentile rule.
double Percentile(const std::vector<double>& values, double p);
double Median(const std::vector<double>& values);

/// exec_tps is the fast quartile (p75) of many short samples, not their
/// median: other tenants of the host only ever slow a sample down, by up
/// to a third for seconds at a time, so the fast quartile estimates the
/// undisturbed speed and moves less from run to run.
inline constexpr double kFastRatePct = 75;

/// Peak resident set of this process since the last ResetPeakRss (or
/// since start), in MiB (0 if unavailable).
double PeakRssMb();
/// Restarts the peak at the current resident set, so each epoch or
/// repetition reports its own peak. Without kernel support the peak stays
/// the process-wide one.
void ResetPeakRss();

/// Runners for the exec_* and cluster_* workloads; false for a name the
/// runner does not own.
bool RunExec(const Args& args, Outcome* out);
bool RunCluster(const Args& args, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
