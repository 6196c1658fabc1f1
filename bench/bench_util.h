// Shared helpers for the figure-reproduction benchmark binaries.
//
// Each bench binary regenerates one table/figure of the paper's evaluation
// (see DESIGN.md section 3): it sweeps the same parameters, prints the
// series as an aligned CSV-style table, and states the qualitative
// expectation from the paper so the output is self-checking.
#ifndef THUNDERBOLT_BENCH_BENCH_UTIL_H_
#define THUNDERBOLT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "ce/executor_pool.h"
#include "core/config.h"
#include "obs/latency.h"
#include "obs/obs.h"
#include "placement/placement.h"
#include "storage/kv_store.h"
#include "svc/admission.h"
#include "svc/arrival.h"
#include "svc/service.h"
#include "workload/workload.h"

namespace thunderbolt::bench {

/// Escapes `s` for use inside a JSON string literal.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Formats a table cell as a JSON value: finite numbers stay bare,
/// everything else (including "inf"/"nan", which JSON cannot represent)
/// becomes a quoted string.
inline std::string JsonCell(const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    double v = std::strtod(cell.c_str(), &end);
    if (end != nullptr && *end == '\0' && std::isfinite(v)) return cell;
  }
  return "\"" + JsonEscape(cell) + "\"";
}

/// Every Table the binary prints is also recorded here, so any figure
/// binary can dump its full series as JSON with one call at the end of
/// main (WriteTablesJsonIfRequested).
class TableLog {
 public:
  struct Entry {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };

  static TableLog& Instance() {
    static TableLog log;
    return log;
  }

  /// Returns the new table's index; rows are added against it so two live
  /// Table objects can't cross-wire each other's series.
  size_t StartTable(std::string name, std::vector<std::string> columns) {
    if (name.empty()) name = "table" + std::to_string(tables_.size());
    tables_.push_back(Entry{std::move(name), std::move(columns), {}});
    return tables_.size() - 1;
  }

  void AddRow(size_t table_index, const std::vector<std::string>& cells) {
    if (table_index < tables_.size()) {
      tables_[table_index].rows.push_back(cells);
    }
  }

  const std::vector<Entry>& tables() const { return tables_; }

  /// Writes `{figure, tables: [{name, columns, rows}]}` to `path`.
  bool WriteJson(const std::string& path, const std::string& figure) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"figure\": \"%s\",\n  \"tables\": [",
                 JsonEscape(figure).c_str());
    for (size_t t = 0; t < tables_.size(); ++t) {
      const Entry& e = tables_[t];
      std::fprintf(f, "%s\n    {\n      \"name\": \"%s\",\n      "
                   "\"columns\": [",
                   t == 0 ? "" : ",", JsonEscape(e.name).c_str());
      for (size_t i = 0; i < e.columns.size(); ++i) {
        std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                     JsonEscape(e.columns[i]).c_str());
      }
      std::fprintf(f, "],\n      \"rows\": [");
      for (size_t r = 0; r < e.rows.size(); ++r) {
        std::fprintf(f, "%s\n        [", r == 0 ? "" : ",");
        for (size_t i = 0; i < e.rows[r].size(); ++i) {
          std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                       JsonCell(e.rows[r][i]).c_str());
        }
        std::fprintf(f, "]");
      }
      std::fprintf(f, "%s\n      ]\n    }", e.rows.empty() ? "" : "\n");
    }
    std::fprintf(f, "%s\n  ]\n}\n", tables_.empty() ? "" : "\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<Entry> tables_;
};

/// Prints the figure banner.
inline void Banner(const char* figure, const char* description,
                   const char* expectation) {
  std::printf("\n");
  std::printf(
      "==============================================================="
      "=======\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("Paper expectation: %s\n", expectation);
  std::printf(
      "==============================================================="
      "=======\n");
}

/// Simple aligned table printer. Rows are mirrored into TableLog so the
/// binary can additionally dump its series as JSON (--json <path>).
class Table {
 public:
  explicit Table(std::vector<std::string> columns, std::string name = "")
      : columns_(std::move(columns)),
        log_index_(TableLog::Instance().StartTable(std::move(name),
                                                   columns_)) {
    for (const auto& c : columns_) std::printf("%14s", c.c_str());
    std::printf("\n");
    for (size_t i = 0; i < columns_.size(); ++i) std::printf("%14s", "----");
    std::printf("\n");
  }

  void Row(const std::vector<std::string>& cells) {
    TableLog::Instance().AddRow(log_index_, cells);
    for (const auto& c : cells) std::printf("%14s", c.c_str());
    std::printf("\n");
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> columns_;
  size_t log_index_;
};

inline std::string Fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtInt(uint64_t v) { return std::to_string(v); }

/// Prints (and mirrors into the --json TableLog) a "phase_latency" table
/// summarizing a per-phase commit-latency decomposition — the standard
/// tail section of every figure binary that sweeps through the pools or
/// the cluster. Empty phases print "-" so an idle phase is not mistaken
/// for a zero-latency one.
inline void PhaseLatencyTable(const obs::LatencyBreakdown& phases) {
  std::printf("\n--- per-phase latency decomposition ---\n");
  Table table({"phase", "count", "mean(us)", "p50(us)", "p99(us)", "max(us)"},
              "phase_latency");
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    const Histogram& h = phases.phase[p];
    const bool empty = h.Count() == 0;
    table.Row({obs::PhaseName(static_cast<obs::Phase>(p)),
               FmtInt(h.Count()), empty ? "-" : Fmt(h.Mean(), 1),
               empty ? "-" : Fmt(h.Percentile(50), 1),
               empty ? "-" : Fmt(h.Percentile(99), 1),
               empty ? "-" : Fmt(h.Max(), 1)});
  }
}

/// Exits with code 2 unless `known`, naming `name` and the `registered`
/// alternatives: a typo must not silently bench a default.
inline void RequireKnown(bool known, const char* what,
                         const std::string& name,
                         const std::vector<std::string>& registered) {
  if (known) return;
  std::fprintf(stderr, "unknown %s \"%s\"; registered:", what, name.c_str());
  for (const std::string& n : registered) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// Parses `text`, the value of `--<flag>`, as a T. The whole text must
/// parse to a finite number, and to one above zero when `positive`;
/// anything else exits with code 2.
template <typename T>
T ParseNumber(const std::string& flag, const std::string& text,
              bool positive = true) {
  T value{};
  const char* end = text.data() + text.size();
  const std::from_chars_result parsed =
      std::from_chars(text.data(), end, value);
  bool ok = parsed.ec == std::errc() && parsed.ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok || (positive && !(value > 0))) {
    std::fprintf(stderr, "invalid --%s \"%s\"%s\n", flag.c_str(), text.c_str(),
                 positive ? " (need a number > 0)" : "");
    std::exit(2);
  }
  return value;
}

/// Splits a comma list, dropping empty items.
inline std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) items.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

/// A driver's view of argv: `--name` switches and `--name <value>` /
/// `--name=<value>` flags. Each read consumes the argv entries it matched
/// and records the name, so once a driver has read every flag it knows,
/// RejectUnread() turns a typo, a flag this driver does not read, or a
/// second value for one flag into exit code 2 instead of a run on
/// defaults.
class Flags {
 public:
  Flags(int argc, char** argv)
      : args_(argv + 1, argv + argc), consumed_(args_.size(), false) {}

  /// True when the switch `--<name>` is given.
  bool Has(const std::string& name) {
    Note(name);
    bool found = false;
    for (size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] != "--" + name) continue;
      consumed_[i] = true;
      found = true;
    }
    return found;
  }

  /// The value of `--<name>`, or `fallback` when the flag is absent.
  std::string Value(const std::string& name, const std::string& fallback = "") {
    Note(name);
    const std::string flag = "--" + name;
    for (size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == flag) {
        // No flag takes a value that starts with "--": that is the next
        // flag, and `--json --quick` must not write a file named --quick.
        if (i + 1 == args_.size() || args_[i + 1].rfind("--", 0) == 0) {
          std::fprintf(stderr, "%s needs a value\n", flag.c_str());
          std::exit(2);
        }
        consumed_[i] = consumed_[i + 1] = true;
        return args_[i + 1];
      }
      if (args_[i].rfind(flag + "=", 0) == 0) {
        consumed_[i] = true;
        return args_[i].substr(flag.size() + 1);
      }
    }
    return fallback;
  }

  /// The value of `--<name>` through ParseNumber, or `fallback` when the
  /// flag is absent.
  template <typename T>
  T Number(const std::string& name, T fallback, bool positive = true) {
    const std::string text = Value(name);
    return text.empty() ? fallback : ParseNumber<T>(name, text, positive);
  }

  /// Exits with code 2 naming the first argv entry no read consumed, and
  /// listing the flags this driver reads.
  void RejectUnread() const {
    for (size_t i = 0; i < args_.size(); ++i) {
      if (consumed_[i]) continue;
      std::fprintf(stderr, "unexpected argument \"%s\"; this driver reads:",
                   args_[i].c_str());
      for (const std::string& n : names_) {
        std::fprintf(stderr, " --%s", n.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }

 private:
  void Note(const std::string& name) {
    if (std::find(names_.begin(), names_.end(), name) == names_.end()) {
      names_.push_back(name);
    }
  }

  std::vector<std::string> args_;
  std::vector<bool> consumed_;
  std::vector<std::string> names_;
};

/// Exits with code 2 when `spec` (a `k=v,...` param string) assigns any
/// of the `reserved` keys. Drivers reserve the axes their own flags or
/// sweep loops control: accepting such an override and then clobbering
/// it in the sweep would mislabel the emitted series.
inline void RejectReservedParams(const std::string& spec,
                                 std::initializer_list<const char*> reserved) {
  for (const char* key : reserved) {
    const std::string needle = std::string(key) + "=";
    for (size_t pos = spec.find(needle); pos != std::string::npos;
         pos = spec.find(needle, pos + 1)) {
      if (pos == 0 || spec[pos - 1] == ',') {
        std::fprintf(stderr,
                     "--params may not set \"%s\": this driver owns that "
                     "axis (use its dedicated flag or sweep)\n",
                     key);
        std::exit(2);
      }
    }
  }
}

/// Instantiates a store spec from storage::StoreRegistry. ParseClusterFlags
/// checks only the base name, so a spec whose params the backend rejects
/// ("mem:capactiy=16", "wal:inner=nosuch") fails here: exit with code 2
/// rather than bench a null store. (The spec is not trial-built up front:
/// a "wal:dir=" spec would touch its directory.)
inline std::unique_ptr<storage::KVStore> CreateStore(const std::string& spec) {
  std::unique_ptr<storage::KVStore> store =
      storage::StoreRegistry::Global().Create(spec);
  if (store == nullptr) {
    std::fprintf(stderr, "store spec \"%s\" could not be built\n",
                 spec.c_str());
    std::exit(2);
  }
  return store;
}

/// The observability artifacts a bench binary was asked to write:
/// `--trace-out` (Chrome trace-event JSON, loadable at ui.perfetto.dev),
/// `--metrics-out` (metrics-registry snapshot) and `--timeseries-out`
/// (windowed counter deltas).
///
/// Sweeping drivers call Capture() once per cluster/bundle; the artifacts
/// describe the LAST captured run (each capture replaces the previous one
/// — a sweep produces one representative trace, not a concatenation).
class ObsArtifacts {
 public:
  std::string trace_path;
  std::string metrics_path;
  std::string timeseries_path;

  /// Snapshots `obs`'s sinks; safe to call after the owning cluster dies.
  /// Closes the trailing time-series window and syncs the ring's drop
  /// accounting into the registry first, so the artifacts are consistent.
  void Capture(obs::Observability& obs) {
    obs.SyncTraceStats();
    obs.FlushTimeSeries();
    metrics_json_ = obs.metrics().ToJson();
    trace_json_ = obs.ring() != nullptr ? obs.ring()->ToChromeJson() : "";
    timeseries_json_ =
        obs.timeseries() != nullptr ? obs.timeseries()->ToJson() : "";
  }

  /// Writes the captured artifacts to the requested paths. Returns 0, or
  /// 1 when a requested file could not be written (or nothing was
  /// captured).
  int WriteIfRequested() const {
    int rc = 0;
    rc |= WriteOne(trace_path, trace_json_, "trace");
    rc |= WriteOne(metrics_path, metrics_json_, "metrics");
    rc |= WriteOne(timeseries_path, timeseries_json_, "timeseries");
    return rc;
  }

 private:
  static int WriteOne(const std::string& path, const std::string& body,
                      const char* what) {
    if (path.empty()) return 0;
    if (body.empty()) {
      std::fprintf(stderr, "no %s captured for %s\n", what, path.c_str());
      return 1;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to open %s\n", path.c_str());
      return 1;
    }
    const size_t written = std::fwrite(body.data(), 1, body.size(), f);
    const bool ok = (std::fclose(f) == 0) && written == body.size();
    if (!ok) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("%s written to %s\n", what, path.c_str());
    return 0;
  }

  std::string trace_json_;
  std::string metrics_json_;
  std::string timeseries_json_;
};

/// The shared flag groups a driver may read on top of `--store` and the
/// observability flags, which every driver reads.
enum ClusterFlagGroup : unsigned {
  /// `--workload <name>`, `--params <k=v,...>`.
  kWorkloadFlags = 1u << 0,
  /// `--placement <name>`, `--placement-params <k=v,...>`.
  kPlacementFlags = 1u << 1,
  /// `--pool <name>`.
  kPoolFlags = 1u << 2,
  /// The open-loop front end's shape: `--arrival <name>` (enables it),
  /// `--arrival-params <k=v,...>`, `--queue-depth <n>`,
  /// `--limiter-rate <tps>`, `--limiter-burst <tokens>`,
  /// `--codel-target-us <us>`.
  kServiceFlags = 1u << 3,
  /// `--rate <tps>` (enables the front end) and `--admission <policy>`:
  /// the axes bench_overload sweeps itself.
  kOfferedLoadFlags = 1u << 4,
};

/// What the shared flags select. `config` is the base every cluster or
/// pool of the run copies before setting the axes its driver sweeps.
struct ClusterFlags {
  /// placement, store, pool, service and obs as the flags set them.
  core::ThunderboltConfig config;
  /// With kWorkloadFlags: the registry workload name and its options.
  std::string workload;
  workload::WorkloadOptions options;
  ObsArtifacts artifacts;
};

/// Reads `--store`, `--trace-out`, `--metrics-out`, `--timeseries-out`,
/// `--trace-capacity <n>`, `--timeseries-window <us>` and the flags of
/// `groups` into a ClusterFlags, exiting with code 2 on an unknown name or
/// a malformed value. With kWorkloadFlags the workload options start from
/// the paper's shared defaults (1000 records, theta 0.85, Pr 0.5, the
/// figure's `workload_seed`) before `--params` applies; keys listed in
/// `reserved_params` (axes the figure itself sweeps) are rejected. Store
/// params are checked when the store is built (CreateStore, or
/// core::Cluster for cluster benches).
inline ClusterFlags ParseClusterFlags(
    Flags& flags, unsigned groups, uint64_t workload_seed = 0,
    std::initializer_list<const char*> reserved_params = {}) {
  ClusterFlags out;
  core::ThunderboltConfig& cfg = out.config;
  if (groups & kWorkloadFlags) {
    workload::WorkloadRegistry& registry = workload::WorkloadRegistry::Global();
    out.options.num_records = 1000;
    out.options.theta = 0.85;
    out.options.read_ratio = 0.5;
    out.options.seed = workload_seed;
    out.workload = flags.Value("workload", "smallbank");
    RequireKnown(registry.Contains(out.workload), "workload", out.workload,
                 registry.Names());
    const std::string spec = flags.Value("params");
    RejectReservedParams(spec, reserved_params);
    Status s = workload::ApplyWorkloadParams(spec, &out.options);
    if (!s.ok()) {
      std::fprintf(stderr, "bad --params: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  }
  if (groups & kPlacementFlags) {
    placement::PlacementRegistry& registry =
        placement::PlacementRegistry::Global();
    cfg.placement = flags.Value("placement", cfg.placement);
    RequireKnown(registry.Contains(cfg.placement), "placement policy",
                 cfg.placement, registry.Names());
    cfg.placement_params = flags.Value("placement-params");
  }
  cfg.store = flags.Value("store", cfg.store);
  RequireKnown(storage::StoreRegistry::Global().Contains(cfg.store),
               "store backend", cfg.store,
               storage::StoreRegistry::Global().Names());
  if (groups & kPoolFlags) {
    const std::vector<std::string> names = ce::ExecutorPoolNames();
    cfg.pool = flags.Value("pool", cfg.pool);
    RequireKnown(std::find(names.begin(), names.end(), cfg.pool) != names.end(),
                 "executor pool", cfg.pool, names);
  }
  svc::ServiceConfig& service = cfg.service;
  if (groups & kServiceFlags) {
    const std::string arrival = flags.Value("arrival");
    if (!arrival.empty()) {
      RequireKnown(svc::ArrivalRegistry::Global().Contains(arrival),
                   "arrival process", arrival,
                   svc::ArrivalRegistry::Global().Names());
      service.arrival = arrival;
      service.enabled = true;
    }
    service.arrival_params = flags.Value("arrival-params");
    service.queue_depth = flags.Number("queue-depth", service.queue_depth);
    // A limiter rate or burst <= 0 switches the limiter off or derives
    // the burst, so zero and negative values stay valid.
    service.limiter_rate_tps =
        flags.Number("limiter-rate", service.limiter_rate_tps, false);
    service.limiter_burst =
        flags.Number("limiter-burst", service.limiter_burst, false);
    service.codel_target =
        flags.Number("codel-target-us", service.codel_target);
  }
  if (groups & kOfferedLoadFlags) {
    const std::string rate = flags.Value("rate");
    if (!rate.empty()) {
      service.rate_tps = ParseNumber<double>("rate", rate);
      service.enabled = true;
    }
    svc::AdmissionPolicy policy;
    service.admission = flags.Value("admission", service.admission);
    RequireKnown(svc::ParseAdmissionPolicy(service.admission, &policy),
                 "admission policy", service.admission,
                 svc::AdmissionPolicyNames());
  }
  out.artifacts.trace_path = flags.Value("trace-out");
  out.artifacts.metrics_path = flags.Value("metrics-out");
  out.artifacts.timeseries_path = flags.Value("timeseries-out");
  cfg.obs.trace = !out.artifacts.trace_path.empty();
  cfg.obs.trace_capacity =
      flags.Number("trace-capacity", cfg.obs.trace_capacity);
  cfg.obs.timeseries = !out.artifacts.timeseries_path.empty();
  cfg.obs.timeseries_window_us =
      flags.Number("timeseries-window", cfg.obs.timeseries_window_us);
  return out;
}

/// Dumps every table printed so far to `path` (the driver's `--json`
/// value) when it is non-empty. Call as the last statement of main.
inline int WriteTablesJsonIfRequested(const std::string& path,
                                      const char* figure) {
  if (path.empty()) return 0;
  if (!TableLog::Instance().WriteJson(path, figure)) {
    std::fprintf(stderr, "failed to write JSON to %s\n", path.c_str());
    return 1;
  }
  std::printf("\nJSON series written to %s\n", path.c_str());
  return 0;
}

}  // namespace thunderbolt::bench

#endif  // THUNDERBOLT_BENCH_BENCH_UTIL_H_
