// Observability bundle: one MetricsRegistry plus the optional sinks —
// RingTracer (lifecycle spans) and TimeSeriesRecorder (windowed counter
// deltas) — configured by ObsOptions (threaded through
// ThunderboltConfig::obs and the benches' --trace-out/--metrics-out/
// --timeseries-out flags, see bench/bench_util.h).
#ifndef THUNDERBOLT_OBS_OBS_H_
#define THUNDERBOLT_OBS_OBS_H_

#include <cstdint>
#include <memory>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace thunderbolt::obs {

/// Knobs a config owner (ThunderboltConfig, a bench driver) sets before
/// constructing the Observability bundle.
struct ObsOptions {
  /// Record lifecycle trace events into a RingTracer. Off by default: the
  /// tracer is then the shared NullTracer and every instrumentation site
  /// costs one predictable branch.
  bool trace = false;
  /// Ring capacity in events when tracing; oldest events drop first.
  uint32_t trace_capacity = 1u << 16;
  /// Record fixed-interval windowed counter deltas (TimeSeriesRecorder).
  /// The clock is whoever drives SampleWindow: the sim clock inside the
  /// cluster, accumulated-virtual or wall time in the bench drivers.
  bool timeseries = false;
  /// Sampling window width in (virtual or wall) microseconds.
  uint64_t timeseries_window_us = 100000;
};

/// Owns the metrics registry and (when enabled) the trace ring and the
/// time-series recorder. Cheap to construct when everything is off.
class Observability {
 public:
  explicit Observability(const ObsOptions& options = {}) : options_(options) {
    if (options_.trace) {
      ring_ = std::make_unique<RingTracer>(options_.trace_capacity);
    }
    if (options_.timeseries) {
      timeseries_ = std::make_unique<TimeSeriesRecorder>(
          &metrics_, options_.timeseries_window_us);
    }
  }

  const ObsOptions& options() const { return options_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Never null: the ring when tracing, the shared NullTracer otherwise.
  Tracer* tracer() { return ring_ ? ring_.get() : NullTracerInstance(); }

  /// The ring sink, or nullptr when tracing is disabled.
  RingTracer* ring() { return ring_.get(); }
  const RingTracer* ring() const { return ring_.get(); }

  /// The time-series recorder, or nullptr when disabled.
  TimeSeriesRecorder* timeseries() { return timeseries_.get(); }
  const TimeSeriesRecorder* timeseries() const { return timeseries_.get(); }

  /// Advances the recorder to now_us. The cluster calls this from a
  /// sim-clock event at every window boundary; bench drivers call it
  /// between cells. No-op when time series are disabled.
  void SampleWindow(uint64_t now_us) {
    if (timeseries_) timeseries_->Advance(now_us);
  }

  /// Closes the trailing partial window (end of run). No-op when time
  /// series are disabled.
  void FlushTimeSeries() {
    if (timeseries_) timeseries_->Flush();
  }

  /// Mirrors the ring's drop accounting into the metrics registry
  /// (trace.recorded_events / trace.dropped_events counters). Call at
  /// capture points; no-op without a ring.
  void SyncTraceStats() {
    if (!ring_) return;
    auto sync = [this](const char* name, uint64_t value) {
      Counter& c = metrics_.GetCounter(name);
      if (value > c.value()) c.Inc(value - c.value());
    };
    sync("trace.recorded_events", ring_->total_recorded());
    sync("trace.dropped_events", ring_->dropped());
  }

 private:
  ObsOptions options_;
  MetricsRegistry metrics_;
  std::unique_ptr<RingTracer> ring_;
  std::unique_ptr<TimeSeriesRecorder> timeseries_;
};

}  // namespace thunderbolt::obs

#endif  // THUNDERBOLT_OBS_OBS_H_
