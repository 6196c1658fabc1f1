#include "core/cluster.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "ce/executor_pool.h"

namespace thunderbolt::core {

namespace {

/// Parses `spec` over WorkloadOptions defaults, aborting on malformed
/// params (cluster construction is configuration; see Cluster ctor docs).
workload::WorkloadOptions OptionsFromParams(const std::string& spec) {
  workload::WorkloadOptions options;
  Status s = workload::ApplyWorkloadParams(spec, &options);
  if (!s.ok()) {
    std::fprintf(stderr, "Cluster: bad workload params \"%s\": %s\n",
                 spec.c_str(), s.ToString().c_str());
    std::abort();
  }
  return options;
}

}  // namespace

Cluster::Cluster(ThunderboltConfig config, const std::string& workload_name,
                 workload::WorkloadOptions options)
    : config_(config) {
  options.num_shards = config_.n;
  simulator_ = std::make_unique<sim::Simulator>();
  network_ = std::make_unique<net::SimNetwork>(simulator_.get(), config_.n,
                                               config_.latency, config_.seed);
  keys_ = crypto::KeyDirectory::Create(config_.n, config_.seed);
  registry_ = contract::Registry::CreateDefault();
  workload_ =
      workload::WorkloadRegistry::Global().Create(workload_name, options);
  if (workload_ == nullptr) {
    std::fprintf(stderr, "Cluster: unknown workload \"%s\"\n",
                 workload_name.c_str());
    std::abort();
  }
  placement_ = workload::InstallPlacement(
      workload_.get(), config_.placement, config_.placement_params, config_.n);
  if (placement_ == nullptr) {
    std::fprintf(stderr, "Cluster: unknown placement policy \"%s\"\n",
                 config_.placement.c_str());
    std::abort();
  }
  // The obs bundle precedes the store: a "wal" backend traces its
  // append/checkpoint barriers through it (and into its sim-time clock).
  obs_ = std::make_unique<obs::Observability>(config_.obs);
  shared_ = std::make_unique<SharedClusterState>();
  storage::StoreOptions store_options;
  store_options.tracer = obs_->tracer();
  store_options.now_us = [sim = simulator_.get()] { return sim->Now(); };
  shared_->canonical =
      storage::StoreRegistry::Global().Create(config_.store, store_options);
  if (shared_->canonical == nullptr) {
    std::fprintf(stderr,
                 "Cluster: store spec \"%s\" could not be built (unknown "
                 "backend or rejected params)\n",
                 config_.store.c_str());
    std::abort();
  }
  // Validate the pool selection before any node constructs with it.
  if (ce::CreateExecutorPool(config_.pool, 1, config_.exec_costs) == nullptr) {
    std::fprintf(stderr, "Cluster: unknown executor pool \"%s\"\n",
                 config_.pool.c_str());
    std::abort();
  }
  workload_->InitStore(shared_->canonical.get());
  if (config_.service.enabled) {
    // Open-loop front end: the arrival processes draw client transactions
    // from the workload (one shard-homed stream per shard) and proposers
    // dequeue admitted work instead of generating batches on demand.
    service_ = std::make_unique<svc::ServiceFrontEnd>(
        config_.service, config_.n, config_.seed,
        [w = workload_.get()](ShardId shard) { return w->NextForShard(shard); },
        &obs_->metrics());
    shared_->service = service_.get();
  }
  metrics_ = std::make_unique<ClusterMetrics>();

  nodes_.reserve(config_.n);
  for (ReplicaId id = 0; id < config_.n; ++id) {
    nodes_.push_back(std::make_unique<ThunderboltNode>(
        config_, id, simulator_.get(), network_.get(), &keys_, registry_,
        workload_.get(), placement_, shared_.get(), metrics_.get(),
        obs_.get(), /*is_observer=*/id == 0));
  }
}

Cluster::Cluster(ThunderboltConfig config, const std::string& workload_name,
                 const std::string& workload_params)
    : Cluster(config, workload_name, OptionsFromParams(workload_params)) {}

Cluster::~Cluster() = default;

void Cluster::CrashReplicaAt(ReplicaId id, SimTime when) {
  assert(id != 0 && "the observer replica must stay alive");
  assert(!started_ && "CrashReplicaAt must be scheduled before Run");
  simulator_->ScheduleAt(when, [this, id]() {
    network_->Crash(id);
    nodes_[id]->Stop();
    obs::Tracer& tracer = *obs_->tracer();
    if (tracer.enabled()) {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kCrash;
      e.pid = id;
      e.ts_us = simulator_->Now();
      tracer.Record(e);
    }
  });
}

ClusterResult Cluster::Run(SimTime duration) {
  // Snapshot counters so repeated Run calls report window deltas.
  const uint64_t invalid0 = metrics_->invalid_blocks;
  const uint64_t skip0 = metrics_->skip_blocks;
  const uint64_t shift0 = metrics_->shift_blocks;
  const uint64_t conv0 = metrics_->conversions;
  const uint64_t reconf0 = metrics_->reconfigurations;
  const uint64_t aborts0 = metrics_->preplay_aborts;
  const size_t migrations0 = metrics_->migration_events.size();

  // The pools break restarts down by cause into registry counters named
  // pool.<pool>.restart_reason.<reason>; snapshot them for window deltas.
  auto reason_count = [this](size_t r) -> uint64_t {
    const obs::Counter* c = obs_->metrics().FindCounter(
        "pool." + config_.pool + ".restart_reason." +
        obs::AbortReasonName(static_cast<obs::AbortReason>(r)));
    return c == nullptr ? 0 : c->value();
  };
  std::array<uint64_t, obs::kNumAbortReasons> reasons0{};
  for (size_t r = 0; r < obs::kNumAbortReasons; ++r) {
    reasons0[r] = reason_count(r);
  }

  if (!started_) {
    started_ = true;
    for (auto& node : nodes_) node->Start();
    if (obs_->timeseries() != nullptr && config_.obs.timeseries_window_us > 0) {
      ScheduleWindowSample(config_.obs.timeseries_window_us);
    }
    if (service_ != nullptr) PumpArrivals();
  }
  SimTime start = simulator_->Now();
  SimTime end = start + duration;
  simulator_->RunUntil(end);
  // Record the run edge so a later FlushTimeSeries stamps the trailing
  // partial window at `end`, not at the last boundary that happened to
  // close (idempotent for windows the sampler chain already closed).
  obs_->SampleWindow(end);

  ClusterResult result;
  result.duration = duration;
  result.invalid_blocks = metrics_->invalid_blocks - invalid0;
  result.skip_blocks = metrics_->skip_blocks - skip0;
  result.shift_blocks = metrics_->shift_blocks - shift0;
  result.conversions = metrics_->conversions - conv0;
  result.reconfigurations = metrics_->reconfigurations - reconf0;
  result.preplay_aborts = metrics_->preplay_aborts - aborts0;
  result.migrations = metrics_->migration_events.size() - migrations0;
  for (size_t r = 0; r < obs::kNumAbortReasons; ++r) {
    result.abort_reasons[r] = reason_count(r) - reasons0[r];
  }
  result.commit_times = metrics_->commit_times;

  // A transaction counts toward this window only once its pipeline
  // completion time lies within it: consensus alone does not "commit" work
  // the executor has not caught up with (ClusterMetrics::CommitSample).
  Histogram window;
  Histogram admit_window;  // completion - admit: the admit->commit view.
  for (; sample_cursor_ < metrics_->samples.size(); ++sample_cursor_) {
    const ClusterMetrics::CommitSample& s =
        metrics_->samples[sample_cursor_];
    if (s.completion > end) break;
    if (s.cross) {
      ++result.committed_cross;
    } else {
      ++result.committed_single;
    }
    window.Add(static_cast<double>(s.completion - s.submit));
    admit_window.Add(static_cast<double>(s.completion - s.admit));
  }

  uint64_t committed = result.committed_single + result.committed_cross;
  result.throughput_tps =
      static_cast<double>(committed) / ToSeconds(duration);
  result.avg_latency_s = window.Mean() / 1e6;
  result.p50_latency_s = window.Median() / 1e6;
  result.p99_latency_s = window.Percentile(99) / 1e6;
  result.p999_latency_s = window.Percentile(99.9) / 1e6;
  result.latency_samples = window.Count();
  result.admit_p99_latency_s = admit_window.Percentile(99) / 1e6;
  result.admit_p999_latency_s = admit_window.Percentile(99.9) / 1e6;

  if (service_ != nullptr) {
    const svc::ServiceFrontEnd::Counters& c = service_->counters();
    result.offered = c.offered - svc_snapshot_.offered;
    result.admitted = c.admitted - svc_snapshot_.admitted;
    result.rejected = c.rejected - svc_snapshot_.rejected;
    result.shed = c.shed - svc_snapshot_.shed;
    svc_snapshot_ = c;
  }

  // Surface cluster-level outcomes and the canonical store's traffic
  // counters through the registry, so a --metrics-out snapshot captures
  // the whole system, not just the pools' view.
  obs::MetricsRegistry& m = obs_->metrics();
  auto sync_counter = [&m](const char* name, uint64_t cumulative) {
    obs::Counter& c = m.GetCounter(name);
    c.Inc(cumulative - c.value());  // Both monotone; bring up to date.
  };
  const storage::StoreStats stats = shared_->canonical->Stats();
  sync_counter("store.gets", stats.gets);
  sync_counter("store.puts", stats.puts);
  sync_counter("store.deletes", stats.deletes);
  sync_counter("store.batches", stats.batches);
  sync_counter("store.scans", stats.scans);
  sync_counter("store.snapshots", stats.snapshots);
  sync_counter("store.forks", stats.forks);
  // The wal counters appear only when that layer is in the stack, so
  // plain-backend metrics snapshots stay byte-identical to before.
  if (stats.wal_appends + stats.wal_checkpoints +
          stats.wal_recovered_records > 0) {
    sync_counter("store.wal_appends", stats.wal_appends);
    sync_counter("store.wal_syncs", stats.wal_syncs);
    sync_counter("store.wal_checkpoints", stats.wal_checkpoints);
    sync_counter("store.wal_recovered_records", stats.wal_recovered_records);
  }
  m.GetGauge("store.live_keys").Set(static_cast<double>(stats.live_keys));
  m.GetCounter("cluster.committed_single").Inc(result.committed_single);
  m.GetCounter("cluster.committed_cross").Inc(result.committed_cross);
  m.GetCounter("cluster.invalid_blocks").Inc(result.invalid_blocks);
  m.GetCounter("cluster.skip_blocks").Inc(result.skip_blocks);
  m.GetCounter("cluster.shift_blocks").Inc(result.shift_blocks);
  m.GetCounter("cluster.conversions").Inc(result.conversions);
  m.GetCounter("cluster.reconfigurations").Inc(result.reconfigurations);
  m.GetCounter("cluster.preplay_aborts").Inc(result.preplay_aborts);
  m.GetCounter("cluster.migrations").Inc(result.migrations);
  m.GetHistogram("cluster.commit_latency_us").Merge(window);
  // Only under the front end, so closed-loop metrics snapshots stay
  // byte-identical to before (there admit == submit anyway).
  if (service_ != nullptr) {
    m.GetHistogram("cluster.admit_latency_us").Merge(admit_window);
  }
  obs_->SyncTraceStats();

  // Window deltas of the six phase.<name>_us histograms (pool-side phases
  // recorded during preplay, commit-path phases by the observer). Samples
  // are append-only in insertion order, so a cursor per phase suffices.
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    const std::string name =
        std::string("phase.") + obs::PhaseName(static_cast<obs::Phase>(p)) +
        "_us";
    const obs::HistogramMetric* h = m.FindHistogram(name);
    if (h == nullptr) continue;
    const Histogram snap = h->Snapshot();
    const std::vector<double>& samples = snap.samples();
    Histogram& out = result.phase_latency[static_cast<obs::Phase>(p)];
    for (size_t i = phase_cursor_[p]; i < samples.size(); ++i) {
      out.Add(samples[i]);
    }
    phase_cursor_[p] = samples.size();
  }
  return result;
}

void Cluster::ScheduleWindowSample(SimTime when) {
  simulator_->ScheduleAt(when, [this, when]() {
    obs_->SampleWindow(when);
    ScheduleWindowSample(when + config_.obs.timeseries_window_us);
  });
}

void Cluster::PumpArrivals() {
  const SimTime next = service_->NextArrivalTime();
  if (next == kSimTimeNever) return;  // Trace replay exhausted.
  simulator_->ScheduleAt(next, [this, next]() {
    service_->AdvanceTo(next);
    PumpArrivals();
  });
}

}  // namespace thunderbolt::core
