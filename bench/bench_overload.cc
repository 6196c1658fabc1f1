// bench_overload: the open-loop overload sweep (service front end).
//
// Closed-loop benches cannot show overload behavior: the generator only
// offers work as fast as the system drains it, so throughput-vs-load
// curves have no "beyond saturation" region. This driver first measures
// each engine's closed-loop saturation throughput S, then replays an
// open-loop arrival process at 0.2x..2x S per admission policy and plots
// throughput-vs-offered-load and latency-vs-offered-load.
//
// Expectation: throughput tracks offered load up to a saturation knee at
// ~S and plateaus beyond it for every policy. Past the knee the policies
// separate on latency: drop-tail lets the full standing queue build, so
// end-to-end p999 plateaus at queue_depth / per-shard service rate
// (bufferbloat — deep queues make it worse); shed-oldest keeps only the
// freshest work, bounding the wait at roughly queue_depth / offered rate;
// codel sheds anything older than its sojourn target at dequeue, capping
// the queue's latency contribution near the target regardless of depth.
//
//   bench_overload --smoke --json overload.json     # small CI sweep
//   bench_overload --engine thunderbolt --admission codel,drop-tail
//
// Flags:
//   --engine <names>         thunderbolt,tusk            [thunderbolt,tusk]
//   --admission <names>      comma list of policies      [all three]
//   --arrival <name>         arrival process             [poisson]
//   --arrival-params <k=v,...>  process params           []
//   --queue-depth <n>        per-shard admission bound   [4096]
//   --limiter-rate <tps>     token-bucket rate; <= 0 is off  [0]
//   --limiter-burst <tokens> token-bucket size; <= 0 derives one  [0]
//   --codel-target-us <us>   codel sojourn target        [50000]
//   --workload <name> / --params <k=v,...>  cluster workload [smallbank]
//   --placement <name> / --placement-params <k=v,...> / --store <spec>
//                            as in the other benches
//   --json <path>            dump the sweep tables as JSON
//   --trace-out / --metrics-out / --timeseries-out <path>  last-cell
//                            artifacts; --trace-capacity <n> and
//                            --timeseries-window <us> as elsewhere
//   --smoke                  1 engine, shorter runs, fewer points (CI)
//   --quick                  shorter runs only
//
// The sweep sets --rate itself (0.2x..2x of the calibrated saturation),
// so the driver rejects that flag.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/cluster.h"

namespace thunderbolt {
namespace {

struct EngineChoice {
  std::string name;
  core::ExecutionMode mode;
};

/// The sweep's cluster shape over the shared flags' base config.
core::ThunderboltConfig BaseConfig(core::ExecutionMode mode,
                                   core::ThunderboltConfig cfg) {
  cfg.n = 4;
  cfg.mode = mode;
  cfg.batch_size = 500;
  cfg.seed = 77;
  return cfg;
}

/// Closed-loop saturation throughput: what the engine commits when the
/// proposers pull as fast as the pipeline drains. This anchors the sweep's
/// rate axis so "2x" means the same degree of overload on every engine.
/// The calibration run has no front end and records no artifacts.
double CalibrateSaturation(core::ExecutionMode mode,
                           const bench::ClusterFlags& cf, SimTime duration) {
  core::ThunderboltConfig cfg = BaseConfig(mode, cf.config);
  cfg.service = svc::ServiceConfig{};
  cfg.obs = obs::ObsOptions{};
  core::Cluster cluster(cfg, cf.workload, cf.options);
  const core::ClusterResult r = cluster.Run(duration);
  // An engine that commits (almost) nothing would collapse the rate axis;
  // floor the anchor so the sweep still exercises the admission machinery.
  return r.throughput_tps > 1000.0 ? r.throughput_tps : 1000.0;
}

}  // namespace
}  // namespace thunderbolt

int main(int argc, char** argv) {
  using namespace thunderbolt;
  bench::Flags flags(argc, argv);
  const bool smoke = flags.Has("smoke");
  const bool quick = flags.Has("quick") || smoke;
  const SimTime duration = quick ? Seconds(1) : Seconds(3);
  const std::string json = flags.Value("json");

  // The sweep owns the rate and policy axes; take the front end's shape
  // (arrival process, queue depth, limiter, codel target) from the shared
  // flags.
  bench::ClusterFlags cf = bench::ParseClusterFlags(
      flags,
      bench::kWorkloadFlags | bench::kPlacementFlags | bench::kServiceFlags,
      /*workload_seed=*/77);
  svc::ServiceConfig& service = cf.config.service;
  service.enabled = true;
  // Deep enough that drop-tail's standing-queue latency clearly exceeds
  // the codel target — the contrast the figure is about.
  service.queue_depth = flags.Number<uint32_t>("queue-depth", 4096);

  std::vector<EngineChoice> engines;
  const std::string engine_spec = flags.Value("engine");
  std::vector<std::string> engine_names =
      engine_spec.empty() ? std::vector<std::string>{"thunderbolt", "tusk"}
                          : bench::SplitList(engine_spec);
  if (smoke && engine_spec.empty()) engine_names = {"thunderbolt"};
  for (const std::string& name : engine_names) {
    if (name == "thunderbolt") {
      engines.push_back({name, core::ExecutionMode::kThunderbolt});
    } else if (name == "occ") {
      engines.push_back({name, core::ExecutionMode::kThunderboltOcc});
    } else if (name == "tusk") {
      engines.push_back({name, core::ExecutionMode::kTusk});
    } else {
      bench::RequireKnown(false, "engine", name,
                          {"thunderbolt", "occ", "tusk"});
    }
  }
  // --admission here selects the POLICY SWEEP (comma list), unlike the
  // single-policy flag of the other benches.
  const std::string policy_spec = flags.Value("admission");
  const std::vector<std::string> policies =
      policy_spec.empty() ? svc::AdmissionPolicyNames()
                          : bench::SplitList(policy_spec);
  for (const std::string& name : policies) {
    svc::AdmissionPolicy parsed;
    bench::RequireKnown(svc::ParseAdmissionPolicy(name, &parsed),
                        "admission policy", name, svc::AdmissionPolicyNames());
  }
  flags.RejectUnread();
  const std::vector<double> mults =
      smoke ? std::vector<double>{0.25, 0.5, 1.0, 2.0}
            : std::vector<double>{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.6, 2.0};

  bench::Banner(
      "overload", "open-loop arrival sweep: throughput & tail latency vs "
      "offered load per admission policy",
      "throughput tracks offered load to a saturation knee then plateaus; "
      "beyond the knee drop-tail's p999 plateaus at the full standing "
      "queue (bufferbloat) while shed-oldest and codel keep it bounded");
  std::printf("workload: %s  arrival: %s  queue-depth: %u  duration: %.1fs\n",
              cf.workload.c_str(), service.arrival.c_str(),
              service.queue_depth, ToSeconds(duration));

  bench::Table table(
      {"engine", "policy", "mult", "offered(tps)", "tput(tps)", "p99(s)",
       "p999(s)", "admit_p99(s)", "offered", "admitted", "shed", "rejected"},
      "overload");
  bool all_ok = true;
  for (const EngineChoice& engine : engines) {
    const double saturation =
        CalibrateSaturation(engine.mode, cf, duration);
    std::printf("\n%s closed-loop saturation: %.0f tps\n",
                engine.name.c_str(), saturation);
    for (const std::string& policy : policies) {
      for (double mult : mults) {
        core::ThunderboltConfig cfg = BaseConfig(engine.mode, cf.config);
        cfg.service.admission = policy;
        cfg.service.rate_tps = saturation * mult;
        core::Cluster cluster(cfg, cf.workload, cf.options);
        const core::ClusterResult r = cluster.Run(duration);
        if (!cluster.CheckInvariant().ok()) all_ok = false;
        cf.artifacts.Capture(cluster.obs());
        const bool idle = r.latency_samples == 0;
        table.Row({engine.name, policy, bench::Fmt(mult, 2),
                   bench::Fmt(cfg.service.rate_tps, 0),
                   bench::Fmt(r.throughput_tps, 0),
                   idle ? "-" : bench::Fmt(r.p99_latency_s, 4),
                   idle ? "-" : bench::Fmt(r.p999_latency_s, 4),
                   idle ? "-" : bench::Fmt(r.admit_p99_latency_s, 4),
                   bench::FmtInt(r.offered), bench::FmtInt(r.admitted),
                   bench::FmtInt(r.shed), bench::FmtInt(r.rejected)});
      }
    }
  }
  if (!all_ok) std::fprintf(stderr, "workload invariant VIOLATED\n");
  return bench::WriteTablesJsonIfRequested(json, "overload") |
         cf.artifacts.WriteIfRequested() | (all_ok ? 0 : 1);
}
