// tb_perfbench: the repository benchmark's measuring program.
//
//   tb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--out-dir <dir>] [--git-commit <id>] [--source-digest <hex>]
//
// Prints a human-readable summary (environment stamp, every metric with
// its unit and sample basis, attribution notes) and, as its last line, one
// JSON object {"correct","attempted","failed","metrics"}. --trace 0 puts
// the end-to-end metrics in "metrics"; --trace 1 the per-layer metrics the
// workload measured (perfbench/run.py adds the layers it bypasses, as 0).
// Exits 1 when a correctness check failed (after printing the JSON), 2 on
// bad arguments and 3 for a build whose timings are not comparable
// (assertions on, or a sanitizer).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "report.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE 0
#endif

namespace perfbench {

double Percentile(const std::vector<double>& values, double p) {
  thunderbolt::Histogram h;
  for (double v : values) h.Add(v);
  return h.Percentile(p);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50);
}

// The kernel's high-water mark of this process image. getrusage's
// ru_maxrss is not used: it keeps the launcher's high-water mark across
// fork + exec, so a Python parent would set its floor.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

void ResetPeakRss() {
  // Writing 5 to clear_refs resets this process's VmHWM (Linux >= 4.0).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

namespace {

bool ParseArgs(int argc, char** argv, Args* args, std::string* git,
               std::string* digest) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds =
          end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-commit") {
      *git = value;
    } else if (flag == "--source-digest") {
      *digest = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flag %s has no value\n", argv[argc - 1]);
    return false;
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    std::fprintf(stderr,
                 "usage: tb_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return false;
  }
  return true;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool Sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return PERFBENCH_SANITIZE != 0;
#endif
}

void PrintMetric(const char* indent, const std::string& name,
                 const MetricValue& m) {
  std::printf("%s%-30s %16.6g %-14s %s\n", indent, name.c_str(), m.value,
              m.unit.c_str(), m.basis.c_str());
}

void PrintJson(const Outcome& out,
               const std::map<std::string, MetricValue>& metrics) {
  std::string s = std::string("{\"correct\": ") +
                  (out.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) +
                  ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    s += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
         buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string git = "none";
  std::string digest = "none";
  if (!ParseArgs(argc, argv, &args, &git, &digest)) return 2;

  bool ndebug = false;
#ifdef NDEBUG
  ndebug = true;
#endif
  std::printf(
      "env {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"ndebug\": %s, \"sanitizer\": %s, \"git_commit\": \"%s\", "
      "\"source_digest\": \"%s\"}\n",
      std::thread::hardware_concurrency(), Compiler().c_str(),
      PERFBENCH_BUILD_TYPE, ndebug ? "true" : "false",
      Sanitized() ? "true" : "false", git.c_str(), digest.c_str());
  if (!ndebug || Sanitized()) {
    std::fprintf(stderr,
                 "refusing to measure: assertions or sanitizers are on, so "
                 "timings are not comparable; build Release\n");
    return 3;
  }

  Outcome out;
  if (!RunExec(args, &out) && !RunCluster(args, &out)) {
    std::fprintf(stderr,
                 "unknown workload %s (exec_kv, exec_tpcc, cluster_smallbank, "
                 "cluster_failover)\n",
                 args.workload.c_str());
    return 2;
  }
  if (out.correct && !(out.end_to_end["peak_rss_mb"].value > 0)) {
    out.Fail("cannot read the peak resident set (VmHWM)");
  }

  std::map<std::string, MetricValue> reported =
      args.trace ? out.layers : out.end_to_end;
  for (const auto& [name, m] : reported) {
    if (!std::isfinite(m.value)) out.Fail("metric " + name + " is not finite");
  }
  if (out.correct && reported.empty()) out.Fail("no metrics measured");

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& e : out.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("end-to-end:\n");
  for (const auto& [name, m] : out.end_to_end) PrintMetric("  ", name, m);
  std::printf("detail (no bound: follows host load):\n");
  for (const auto& [name, m] : out.detail) PrintMetric("  ", name, m);
  if (!out.virtual_metrics.empty()) {
    std::printf("virtual time (deterministic per seed):\n");
    for (const auto& [name, m] : out.virtual_metrics) {
      PrintMetric("  ", name, m);
    }
  }
  if (args.trace) {
    std::printf("per-layer (traced run):\n");
    for (const auto& [name, m] : out.layers) PrintMetric("  ", name, m);
    std::printf("attribution:\n");
    for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  }
  if (!out.correct) reported.clear();
  PrintJson(out, reported);
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
