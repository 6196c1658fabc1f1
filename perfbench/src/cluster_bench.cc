// cluster_* workloads: the whole core::Cluster simulation on one thread.
//
// What a user of the simulator waits for is time per committed transaction
// (simulation speed), reported as wall throughput (exec_tps); next to it
// the run reports the paper's
// virtual-time figures, which are deterministic for a seed. Each
// repetition stands the cluster up from scratch (setup), runs a warm-up
// window, then runs the measured window in short virtual steps, timing
// each and charging the wall time to the next commit at the observer.
// Every repetition must reproduce the same virtual results exactly, and so
// must the traced repetitions, whose canonical store is the timed
// decorator.
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/cluster.h"
#include "layers.h"
#include "obs/latency.h"
#include "report.h"

namespace perfbench {
namespace {

namespace core = thunderbolt::core;
namespace obs = thunderbolt::obs;
namespace workload = thunderbolt::workload;
using thunderbolt::Histogram;
using thunderbolt::Millis;
using thunderbolt::SimTime;

struct ClusterSpec {
  core::ThunderboltConfig config;
  std::string workload;
  workload::WorkloadOptions options;
  bool crash = false;
  uint32_t crash_replica = 0;
  SimTime crash_at = 0;
  SimTime warmup = 0;
  SimTime window = 0;
  /// Virtual length of one Cluster::Run call in the measured window; fine
  /// enough to place each commit at the observer within a few percent of a
  /// round.
  SimTime step = Millis(5);
};

bool SpecFor(const std::string& name, uint64_t seed, ClusterSpec* spec) {
  core::ThunderboltConfig& c = spec->config;
  c.n = 8;
  c.mode = core::ExecutionMode::kThunderbolt;
  c.pool = "sim";
  c.batch_size = 500;
  c.latency = thunderbolt::net::LatencyModel::Lan();  // 200 us + 60 us.
  c.seed = seed;
  spec->options.seed = seed;
  spec->options.cross_shard_ratio = 0.1;
  if (name == "cluster_smallbank") {
    // The paper's SmallBank: 1000 accounts, theta 0.85, Pr 0.5.
    spec->workload = "smallbank";
    spec->options.num_records = 1000;
    spec->options.theta = 0.85;
    spec->options.read_ratio = 0.5;
    spec->warmup = Millis(300);
    spec->window = Millis(1000);
    return true;
  }
  if (name == "cluster_failover") {
    spec->workload = "ycsb";
    spec->options.distribution = "zipfian";
    c.service.enabled = true;
    c.service.arrival = "poisson";
    // About a quarter of closed-loop capacity. From about 30k tps on, the
    // reconfiguration leaves blocks that fail validation (their
    // transactions are dropped) on most seeds; at 20k none did on any
    // seed tried, so no operation fails.
    c.service.rate_tps = 20000;
    c.service.admission = "drop-tail";
    // Deep enough that the backlog built up during the outage is queued,
    // not rejected: no arrival fails.
    c.service.queue_depth = 8192;
    spec->crash = true;
    spec->crash_replica = 7;
    spec->crash_at = thunderbolt::Seconds(1);
    spec->warmup = Millis(500);
    spec->window = Millis(2500);
    return true;
  }
  return false;
}

/// Everything a repetition reports; the virtual part must be identical
/// across repetitions of one seed.
struct Rep {
  double setup_s = 0;       // CPU time of build + warm-up.
  uint64_t run_ns = 0;      // Wall time of the measured window.
  uint64_t run_cpu_ns = 0;  // CPU time of the measured window.
  double peak_rss_mb = 0;   // Peak resident set of the repetition.
  /// Wall time simulated per committed leader (one sub-DAG commit at the
  /// observer): the cluster's "batch" latency.
  std::vector<double> commit_ms;
  uint64_t committed = 0;
  core::ClusterResult sum;  // Counter fields summed over the steps.
  /// Per-phase sample count, p50 and p99 (virtual us) over the window;
  /// summaries only, so repetitions do not pile up samples in memory.
  struct PhaseSummary {
    size_t count = 0;
    double p50 = 0;
    double p99 = 0;
  };
  std::array<PhaseSummary, obs::kNumPhases> phases{};
  double virtual_tps = 0;
  double p50_s = 0;
  double p99_s = 0;
  double admit_p99_s = 0;
  uint64_t latency_samples = 0;
  double outage_s = 0;
  uint64_t events = 0;
  uint64_t msgs = 0;
  uint64_t msgs_dropped = 0;
  uint64_t store_fingerprint = 0;
  OpTotals ops;  // Store decorator totals in the window (traced only).
  std::string invariant_error;

  /// The virtual results as one comparable string.
  std::string Fingerprint() const {
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "commits=%" PRIu64 "/%" PRIu64 " invalid=%" PRIu64 " skip=%" PRIu64
        " shift=%" PRIu64 " conv=%" PRIu64 " reconf=%" PRIu64
        " aborts=%" PRIu64 " offered=%" PRIu64 " rejected=%" PRIu64
        " shed=%" PRIu64 " tps=%.17g p50=%.17g p99=%.17g admit99=%.17g"
        " outage=%.17g events=%" PRIu64 " msgs=%" PRIu64 "/%" PRIu64
        " store=%016" PRIx64,
        committed, sum.committed_cross, sum.invalid_blocks, sum.skip_blocks,
        sum.shift_blocks, sum.conversions, sum.reconfigurations,
        sum.preplay_aborts, sum.offered, sum.rejected, sum.shed, virtual_tps,
        p50_s, p99_s, admit_p99_s, outage_s, events, msgs, msgs_dropped,
        store_fingerprint);
    std::string s = buf;
    for (size_t i = 0; i < obs::kNumPhases; ++i) {
      std::snprintf(buf, sizeof(buf), " %s=%zu/%.17g/%.17g",
                    obs::PhaseName(static_cast<obs::Phase>(i)),
                    phases[i].count, phases[i].p50, phases[i].p99);
      s += buf;
    }
    return s;
  }
};

void Accumulate(const core::ClusterResult& r, core::ClusterResult* sum) {
  sum->committed_single += r.committed_single;
  sum->committed_cross += r.committed_cross;
  sum->invalid_blocks += r.invalid_blocks;
  sum->skip_blocks += r.skip_blocks;
  sum->shift_blocks += r.shift_blocks;
  sum->conversions += r.conversions;
  sum->reconfigurations += r.reconfigurations;
  sum->preplay_aborts += r.preplay_aborts;
  sum->offered += r.offered;
  sum->admitted += r.admitted;
  sum->rejected += r.rejected;
  sum->shed += r.shed;
}

Rep RunRep(const ClusterSpec& base, bool traced, SpanRecorder* spans,
           uint64_t rep_id) {
  Rep rep;
  ClusterSpec spec = base;
  spec.config.store =
      traced ? std::string(kTimedStore) + ":inner=mem" : "mem";
  ScopedSpan rep_span(spans, "cluster.rep", rep_id);

  ResetPeakRss();
  const uint64_t s0 = ProcessCpuNs();
  std::unique_ptr<core::Cluster> cluster;
  {
    ScopedSpan s(spans, "cluster.setup", rep_id);
    cluster = std::make_unique<core::Cluster>(spec.config, spec.workload,
                                              spec.options);
    if (spec.crash) cluster->CrashReplicaAt(spec.crash_replica, spec.crash_at);
  }
  {
    ScopedSpan s(spans, "cluster.warmup", rep_id);
    cluster->Run(spec.warmup);
  }
  rep.setup_s = static_cast<double>(ProcessCpuNs() - s0) / 1e9;

  const uint64_t events0 = cluster->simulator().executed_events();
  const uint64_t msgs0 = cluster->network().messages_delivered();
  const uint64_t dropped0 = cluster->network().messages_dropped();
  const OpTotals ops0 = SumOps();
  uint64_t step_id = 0;
  size_t commits_seen = cluster->metrics().commit_times.size();
  uint64_t since_commit_ns = 0;
  obs::LatencyBreakdown phases;
  for (SimTime done = 0; done < spec.window; done += spec.step) {
    ScopedSpan s(spans, "cluster.run", rep_id * 100000 + step_id++);
    const uint64_t c0 = ProcessCpuNs();
    const uint64_t t0 = NowNs();
    const core::ClusterResult r =
        cluster->Run(std::min(spec.step, spec.window - done));
    const uint64_t dt = NowNs() - t0;
    rep.run_cpu_ns += ProcessCpuNs() - c0;
    rep.run_ns += dt;
    since_commit_ns += dt;
    const size_t commits = cluster->metrics().commit_times.size();
    if (commits > commits_seen) {
      const double ms = static_cast<double>(since_commit_ns) / 1e6 /
                        static_cast<double>(commits - commits_seen);
      rep.commit_ms.insert(rep.commit_ms.end(), commits - commits_seen, ms);
      commits_seen = commits;
      since_commit_ns = 0;
    }
    Accumulate(r, &rep.sum);
    phases.Merge(r.phase_latency);
  }
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    rep.phases[i] = {phases.phase[i].Count(), phases.phase[i].Median(),
                     phases.phase[i].Percentile(99)};
  }
  rep.ops = SumOps() - ops0;
  rep.events = cluster->simulator().executed_events() - events0;
  rep.msgs = cluster->network().messages_delivered() - msgs0;
  rep.msgs_dropped = cluster->network().messages_dropped() - dropped0;
  rep.committed = rep.sum.committed_single + rep.sum.committed_cross;

  // Latency over the measured window, from the commit samples (the same
  // population the per-step ClusterResults count).
  const SimTime w0 = spec.warmup;
  const SimTime w1 = spec.warmup + spec.window;
  Histogram latency;
  Histogram admit_latency;
  for (const auto& s : cluster->metrics().samples) {
    if (s.completion <= w0 || s.completion > w1) continue;
    latency.Add(static_cast<double>(s.completion - s.submit));
    admit_latency.Add(static_cast<double>(s.completion - s.admit));
  }
  rep.latency_samples = latency.Count();
  rep.virtual_tps =
      static_cast<double>(rep.committed) / thunderbolt::ToSeconds(spec.window);
  rep.p50_s = latency.Percentile(50) / 1e6;
  rep.p99_s = latency.Percentile(99) / 1e6;
  rep.admit_p99_s = admit_latency.Percentile(99) / 1e6;

  // Longest stretch after the crash with no commit, up to the window end.
  if (spec.crash) {
    SimTime last = spec.crash_at;
    SimTime longest = 0;
    for (const auto& commit : cluster->metrics().commit_times) {
      const SimTime when = commit.second;
      if (when <= spec.crash_at || when > w1) continue;
      longest = std::max(longest, when - last);
      last = when;
    }
    longest = std::max(longest, w1 - last);
    rep.outage_s = thunderbolt::ToSeconds(longest);
  }

  thunderbolt::Status inv = cluster->CheckInvariant();
  if (!inv.ok()) rep.invariant_error = inv.ToString();
  rep.store_fingerprint = cluster->canonical_state().ContentFingerprint();
  rep.peak_rss_mb = PeakRssMb();
  return rep;
}

double UsPerCommit(uint64_t ns, const Rep& r) {
  return r.committed == 0 ? 0
                          : static_cast<double>(ns) / 1e3 /
                                static_cast<double>(r.committed);
}

/// Repeats RunRep until `seconds` of wall time are used, at least
/// `min_reps` times.
std::vector<Rep> RunReps(const ClusterSpec& spec, bool traced, double seconds,
                         size_t min_reps, SpanRecorder* spans) {
  std::vector<Rep> reps;
  const uint64_t start = NowNs();
  while (reps.size() < min_reps ||
         static_cast<double>(NowNs() - start) / 1e9 < seconds) {
    reps.push_back(RunRep(spec, traced, spans, reps.size()));
  }
  return reps;
}

/// Checks each repetition and adds its operations to the outcome. Every
/// repetition must reproduce `reference` (the first untraced one's virtual
/// results); a repetition that diverges or breaks the invariant fails all
/// its operations.
void Tally(const std::vector<Rep>& reps, uint64_t batch_size,
           const std::string& what, const std::string& reference,
           Outcome* out) {
  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    // Arrivals the front end turned away count as failed, and so do the
    // transactions of blocks that fail validation, which the program drops
    // (clients are expected to retransmit). Their number is not visible
    // from outside, so each invalid block counts as a full batch.
    const uint64_t dropped = r.sum.invalid_blocks * batch_size;
    const uint64_t attempted =
        r.committed + r.sum.rejected + r.sum.shed + dropped;
    uint64_t failed = r.sum.rejected + r.sum.shed + dropped;
    const std::string label = what + " repetition " + std::to_string(i);
    if (r.committed == 0) {
      out->Fail(label + ": no transaction committed in the window");
    }
    // Both configurations were chosen so that no block fails validation;
    // one that does points at the store, preplay or reconfiguration.
    if (r.sum.invalid_blocks != 0) {
      out->Fail(label + ": " + std::to_string(r.sum.invalid_blocks) +
                " blocks failed validation");
    }
    if (!r.invariant_error.empty()) {
      out->Fail(label + ": invariant: " + r.invariant_error);
      failed = attempted;
    }
    const std::string fp = r.Fingerprint();
    if (fp != reference) {
      out->Fail(label + " diverged from the first:\n    " + fp + "\n  vs " +
                reference);
      failed = attempted;
    }
    out->attempted += attempted;
    out->failed += failed;
  }
}

void ReportEndToEnd(const std::vector<Rep>& reps, const ClusterSpec& spec,
                    Outcome* out) {
  std::vector<double> wall_us, cpu_us, tps, commit_ms, setup_s, rss;
  for (const Rep& r : reps) {
    wall_us.push_back(UsPerCommit(r.run_ns, r));
    cpu_us.push_back(UsPerCommit(r.run_cpu_ns, r));
    tps.push_back(Frac(static_cast<double>(r.committed),
                       static_cast<double>(r.run_ns) / 1e9));
    commit_ms.insert(commit_ms.end(), r.commit_ms.begin(), r.commit_ms.end());
    setup_s.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);
  }
  const std::string nr = std::to_string(reps.size()) + " repetitions";
  const std::string nc =
      std::to_string(commit_ms.size()) + " committed leaders";
  out->end_to_end["exec_tps"] = {Percentile(tps, kFastRatePct), "txn/s",
                                 "p75 of " + nr + ", Cluster::Run wall"};
  out->end_to_end["setup_s"] = {Median(setup_s), "s",
                                "median of " + nr + ", build + warm-up, CPU"};
  out->end_to_end["peak_rss_mb"] = {Median(rss), "MB",
                                    "median of " + nr + " peaks (VmHWM)"};
  out->detail["batch_p50_ms"] = {Percentile(commit_ms, 50), "ms",
                                 "p50 of " + nc};
  out->detail["batch_p90_ms"] = {Percentile(commit_ms, 90), "ms",
                                 "p90 of " + nc};
  out->detail["sim_us_per_commit"] = {Median(wall_us), "us",
                                      "median of " + nr + ", wall"};
  out->detail["cpu_us_per_txn"] = {Median(cpu_us), "us",
                                   "median of " + nr + ", Cluster::Run CPU"};

  const Rep& r = reps.front();
  const std::string n = std::to_string(r.latency_samples) + " commits";
  auto& V = out->virtual_metrics;
  V["virtual.tps"] = {r.virtual_tps, "txn/virtual_s",
                      std::to_string(r.committed) + " commits"};
  V["virtual.p50_s"] = {r.p50_s, "virtual_s", "p50 of " + n};
  V["virtual.p99_s"] = {r.p99_s, "virtual_s", "p99 of " + n};
  V["virtual.outage_s"] = {r.outage_s, "virtual_s",
                           spec.crash ? "longest commit gap after the crash"
                                      : "no crash in this workload"};
  V["core.invalid_blocks"] = {static_cast<double>(r.sum.invalid_blocks),
                              "count", "blocks that failed validation"};
}

void ReportLayers(const std::vector<Rep>& plain, const std::vector<Rep>& traced,
                  bool open_loop, Outcome* out) {
  // The virtual results and the invalid-block count, identical across
  // every repetition.
  auto& L = out->layers;
  for (const auto& [name, v] : out->virtual_metrics) L[name] = v;

  const Rep& r = traced.front();
  const double commits = static_cast<double>(r.committed);
  auto per_commit = [commits](double x) {
    return commits <= 0 ? 0 : x / commits;
  };
  L["core.conversions_per_commit"] = {
      per_commit(static_cast<double>(r.sum.conversions)), "count", ""};
  L["core.cross_frac"] = {
      per_commit(static_cast<double>(r.sum.committed_cross)), "frac", ""};
  L["core.skip_blocks"] = {static_cast<double>(r.sum.skip_blocks), "count", ""};
  L["core.shift_blocks"] = {static_cast<double>(r.sum.shift_blocks), "count",
                            ""};
  L["core.reconfigurations"] = {static_cast<double>(r.sum.reconfigurations),
                                "count", ""};
  L["ce.preplay_aborts_per_commit"] = {
      per_commit(static_cast<double>(r.sum.preplay_aborts)), "count", ""};
  L["sim.events_per_commit"] = {per_commit(static_cast<double>(r.events)),
                                "count", ""};
  L["net.msgs_per_commit"] = {per_commit(static_cast<double>(r.msgs)), "count",
                              ""};
  L["net.msgs_dropped"] = {static_cast<double>(r.msgs_dropped), "count", ""};
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    const std::string base =
        std::string("phase.") + obs::PhaseName(static_cast<obs::Phase>(i));
    L[base + ".p50_s"] = {r.phases[i].p50 / 1e6, "virtual_s", ""};
    L[base + ".p99_s"] = {r.phases[i].p99 / 1e6, "virtual_s", ""};
  }
  L["svc.rejected_frac"] = {
      Frac(static_cast<double>(r.sum.rejected),
           static_cast<double>(r.sum.offered)),
      "frac", ""};
  L["svc.shed_frac"] = {Frac(static_cast<double>(r.sum.shed),
                             static_cast<double>(r.sum.offered)),
                        "frac", ""};
  // Closed loop bypasses the front end (admit time == submit time).
  L["svc.admit_p99_s"] = {open_loop ? r.admit_p99_s : 0, "virtual_s", ""};

  // Wall-clock layers: medians over the traced repetitions.
  std::vector<double> store_frac, get_ns, gets, apply_ns, ns_per_event;
  for (const Rep& t : traced) {
    const double run = static_cast<double>(t.run_ns);
    const OpTotals& ops = t.ops;
    const double store_ns = static_cast<double>(ops.Ns(Op::kStoreGet) +
                                                ops.Ns(Op::kStoreWrite) +
                                                ops.Ns(Op::kStoreOther));
    store_frac.push_back(Frac(store_ns, run));
    get_ns.push_back(Frac(static_cast<double>(ops.Ns(Op::kStoreGet)),
                          static_cast<double>(ops.Calls(Op::kStoreGet))));
    gets.push_back(per_commit(static_cast<double>(ops.Calls(Op::kStoreGet))));
    apply_ns.push_back(
        per_commit(static_cast<double>(ops.Ns(Op::kStoreWrite))));
  }
  // Simulator dispatch cost from the untraced repetitions, where no
  // decorator adds to it.
  for (const Rep& p : plain) {
    ns_per_event.push_back(Frac(static_cast<double>(p.run_ns),
                                static_cast<double>(p.events)));
  }
  L["cluster.store_frac"] = {Median(store_frac), "frac", ""};
  L["cluster.unattributed_frac"] = {1.0 - Median(store_frac), "frac", ""};
  L["storage.get_ns"] = {Median(get_ns), "ns", ""};
  L["storage.gets_per_txn"] = {Median(gets), "count", ""};
  L["storage.apply_ns_per_txn"] = {Median(apply_ns), "ns/txn", ""};
  L["sim.ns_per_event"] = {Median(ns_per_event), "ns", ""};

  std::vector<double> plain_us, traced_us;
  for (const Rep& p : plain) plain_us.push_back(UsPerCommit(p.run_cpu_ns, p));
  for (const Rep& t : traced) {
    traced_us.push_back(UsPerCommit(t.run_cpu_ns, t));
  }
  L["trace.overhead_frac"] = {Frac(Median(traced_us), Median(plain_us)) - 1.0,
                              "frac", ""};

  char line[256];
  std::snprintf(line, sizeof(line),
                "  Cluster::Run wall: store %.1f%%, unattributed (DAG, "
                "consensus, preplay, validation, digests, dispatch) %.1f%%",
                100.0 * Median(store_frac), 100.0 * (1.0 - Median(store_frac)));
  out->notes.push_back(line);
}

}  // namespace

bool RunCluster(const Args& args, Outcome* out) {
  ClusterSpec spec;
  if (!SpecFor(args.workload, args.seed, &spec)) return false;
  RegisterDecorators();
  if (!args.trace) {
    const std::vector<Rep> reps =
        RunReps(spec, false, args.seconds, 3, nullptr);
    Tally(reps, spec.config.batch_size, "untraced", reps.front().Fingerprint(),
          out);
    if (out->correct) ReportEndToEnd(reps, spec, out);
    return true;
  }
  // Traced run: untraced repetitions for the reference, then traced ones
  // that must reproduce the same virtual results exactly.
  SpanRecorder spans;
  const std::vector<Rep> plain =
      RunReps(spec, false, args.seconds / 2, 1, nullptr);
  const std::vector<Rep> traced =
      RunReps(spec, true, args.seconds / 2, 1, &spans);
  const std::string reference = plain.front().Fingerprint();
  Tally(plain, spec.config.batch_size, "untraced", reference, out);
  Tally(traced, spec.config.batch_size, "traced", reference, out);
  if (!out->correct) return true;
  ReportEndToEnd(plain, spec, out);
  ReportLayers(plain, traced, spec.config.service.enabled, out);
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  if (!spans.WriteChromeJson(path)) {
    out->Fail("cannot write span file " + path);
  } else {
    out->notes.push_back("  spans: " + path + " (" +
                         std::to_string(spans.spans().size()) + " spans)");
  }
  return true;
}

}  // namespace perfbench
