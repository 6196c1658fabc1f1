// TimeSeriesRecorder window semantics (the invariant the CI schema script
// re-checks on every artifact: per-window counter deltas sum to the run
// totals), the Observability bundle that drives them, and the
// LatencyBreakdown / MergeIntoRegistry plumbing the per-phase latency
// decomposition uses.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace thunderbolt::obs {
namespace {

TEST(TimeSeriesRecorderTest, ClosesWindowsAtBoundaries) {
  MetricsRegistry registry;
  TimeSeriesRecorder recorder(&registry, /*window_us=*/100);
  Counter& commits = registry.GetCounter("cluster.commits_single");

  commits.Inc(3);
  recorder.Advance(100);  // Closes [0, 100) with delta 3.
  commits.Inc(5);
  recorder.Advance(200);  // Closes [100, 200) with delta 5.

  std::vector<TimeSeriesWindow> windows = recorder.Snapshot();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].start_us, 0u);
  EXPECT_EQ(windows[0].end_us, 100u);
  EXPECT_EQ(windows[0].Delta("cluster.commits_single"), 3u);
  EXPECT_EQ(windows[1].start_us, 100u);
  EXPECT_EQ(windows[1].end_us, 200u);
  EXPECT_EQ(windows[1].Delta("cluster.commits_single"), 5u);
  EXPECT_EQ(recorder.CounterTotal("cluster.commits_single"), 8u);
}

TEST(TimeSeriesRecorderTest, MultiWindowGapAttributesDeltaToLastWindow) {
  MetricsRegistry registry;
  TimeSeriesRecorder recorder(&registry, /*window_us=*/100);
  Counter& c = registry.GetCounter("c");

  c.Inc(7);
  recorder.Advance(350);  // Three whole windows close at once.
  std::vector<TimeSeriesWindow> windows = recorder.Snapshot();
  ASSERT_EQ(windows.size(), 3u);
  // Earlier gap windows close empty; the whole delta lands in the last
  // window this Advance closed (documented coarse-sampling behavior).
  EXPECT_EQ(windows[0].Delta("c"), 0u);
  EXPECT_EQ(windows[1].Delta("c"), 0u);
  EXPECT_EQ(windows[2].Delta("c"), 7u);
  EXPECT_EQ(recorder.CounterTotal("c"), 7u);
}

TEST(TimeSeriesRecorderTest, FlushClosesTrailingPartialWindow) {
  MetricsRegistry registry;
  TimeSeriesRecorder recorder(&registry, /*window_us=*/100);
  Counter& c = registry.GetCounter("c");

  c.Inc(2);
  recorder.Advance(100);
  c.Inc(4);
  recorder.Advance(140);  // Mid-window: nothing closes yet.
  EXPECT_EQ(recorder.window_count(), 1u);

  recorder.Flush();  // Partial window [100, 140] closes with the delta.
  std::vector<TimeSeriesWindow> windows = recorder.Snapshot();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[1].start_us, 100u);
  EXPECT_EQ(windows[1].end_us, 140u);
  EXPECT_EQ(windows[1].Delta("c"), 4u);
  // The invariant the CI schema script enforces: window deltas sum to the
  // counter's final total.
  EXPECT_EQ(recorder.CounterTotal("c"), registry.GetCounter("c").value());

  // A second Flush with nothing new is a no-op.
  recorder.Flush();
  EXPECT_EQ(recorder.window_count(), 2u);
}

TEST(TimeSeriesRecorderTest, AdvanceIsMonotonic) {
  MetricsRegistry registry;
  TimeSeriesRecorder recorder(&registry, /*window_us=*/100);
  registry.GetCounter("c").Inc();
  recorder.Advance(200);
  recorder.Advance(50);  // In the past: must not close or reorder anything.
  EXPECT_EQ(recorder.window_count(), 2u);
  EXPECT_EQ(recorder.Snapshot().back().end_us, 200u);
}

TEST(TimeSeriesRecorderTest, WindowsCarryGaugesAndHistogramStats) {
  MetricsRegistry registry;
  TimeSeriesRecorder recorder(&registry, /*window_us=*/100);
  registry.GetGauge("pool.sim.queue_depth").Set(12.0);
  HistogramMetric& h = registry.GetHistogram("phase.execute_us");
  h.Observe(10.0);
  h.Observe(30.0);
  recorder.Advance(100);

  std::vector<TimeSeriesWindow> windows = recorder.Snapshot();
  ASSERT_EQ(windows.size(), 1u);
  ASSERT_EQ(windows[0].gauges.count("pool.sim.queue_depth"), 1u);
  EXPECT_DOUBLE_EQ(windows[0].gauges.at("pool.sim.queue_depth"), 12.0);
  ASSERT_EQ(windows[0].histograms.count("phase.execute_us"), 1u);
  const TimeSeriesWindow::HistStats& stats =
      windows[0].histograms.at("phase.execute_us");
  EXPECT_EQ(stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.mean, 20.0);
  EXPECT_DOUBLE_EQ(stats.max, 30.0);
}

TEST(TimeSeriesRecorderTest, JsonIsDeterministicAndSchemaShaped) {
  auto run = [] {
    MetricsRegistry registry;
    TimeSeriesRecorder recorder(&registry, /*window_us=*/100);
    registry.GetCounter("b.second").Inc(2);
    registry.GetCounter("a.first").Inc(1);
    recorder.Advance(100);
    registry.GetCounter("a.first").Inc(3);
    recorder.Advance(230);
    recorder.Flush();
    return recorder.ToJson();
  };
  const std::string json = run();
  EXPECT_EQ(json, run());  // Same inputs -> same bytes.
  // The shape check_timeseries.py validates: window_us, windows with
  // explicit spans, and a flat totals map.
  EXPECT_NE(json.find("\"window_us\": 100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"windows\""), std::string::npos);
  EXPECT_NE(json.find("\"start_us\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"a.first\": 4"), std::string::npos) << json;
  // Zero deltas are omitted from windows, not invented.
  EXPECT_NE(json.find("\"b.second\": 2"), std::string::npos);
}

TEST(ObservabilityBundleTest, SampleWindowDrivesRecorderAndHealth) {
  ObsOptions options;
  options.trace = true;
  options.timeseries = true;
  options.timeseries_window_us = 100;
  Observability obs(options);
  ASSERT_NE(obs.timeseries(), nullptr);

  obs.SampleWindow(100);
  obs.SampleWindow(200);
  obs.SampleWindow(300);
  EXPECT_EQ(obs.timeseries()->window_count(), 3u);

  // SyncTraceStats mirrors the ring accounting into counters.
  TraceEvent e;
  e.kind = EventKind::kTxnCommit;
  obs.tracer()->Record(e);
  obs.SyncTraceStats();
  EXPECT_EQ(obs.metrics().GetCounter("trace.recorded_events").value(), 1u);
  EXPECT_EQ(obs.metrics().GetCounter("trace.dropped_events").value(), 0u);
}

// --- LatencyBreakdown ------------------------------------------------------

TEST(LatencyBreakdownTest, PhaseNamesAndMerge) {
  EXPECT_STREQ(PhaseName(Phase::kQueueWait), "queue_wait");
  EXPECT_STREQ(PhaseName(Phase::kCrossShardHold), "cross_shard_hold");
  EXPECT_STREQ(PhaseName(Phase::kRestartBackoff), "restart_backoff");

  LatencyBreakdown a, b;
  a[Phase::kExecute].Add(10.0);
  b[Phase::kExecute].Add(30.0);
  b[Phase::kValidate].Add(5.0);
  a.Merge(b);
  EXPECT_EQ(a[Phase::kExecute].Count(), 2u);
  EXPECT_DOUBLE_EQ(a[Phase::kExecute].Mean(), 20.0);
  EXPECT_EQ(a.TotalCount(), 3u);
  a.Clear();
  EXPECT_EQ(a.TotalCount(), 0u);
}

TEST(LatencyBreakdownTest, ToJsonListsEveryPhase) {
  LatencyBreakdown b;
  b[Phase::kCommitApply].Add(100.0);
  const std::string json = b.ToJson();
  // Every phase appears, empty ones as bare counts (the registry's
  // empty-histogram rule), populated ones with stats.
  for (size_t p = 0; p < kNumPhases; ++p) {
    EXPECT_NE(json.find(PhaseName(static_cast<Phase>(p))), std::string::npos)
        << json;
  }
  EXPECT_NE(json.find("\"commit_apply\": {\"count\": 1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"queue_wait\": {\"count\": 0}"), std::string::npos)
      << json;
  // Deterministic bytes for equal contents.
  LatencyBreakdown c;
  c[Phase::kCommitApply].Add(100.0);
  EXPECT_EQ(json, c.ToJson());
}

TEST(LatencyBreakdownTest, MergeIntoRegistryUsesPhaseNames) {
  MetricsRegistry metrics;
  LatencyBreakdown b;
  b[Phase::kQueueWait].Add(7.0);
  b[Phase::kExecute].Add(3.0);
  MergeIntoRegistry(metrics, b);
  const HistogramMetric* queue = metrics.FindHistogram("phase.queue_wait_us");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->Snapshot().Count(), 1u);
  EXPECT_DOUBLE_EQ(queue->Snapshot().Mean(), 7.0);
  // Empty phases are not materialized as zero-count registry entries.
  EXPECT_EQ(metrics.FindHistogram("phase.validate_us"), nullptr);
}

}  // namespace
}  // namespace thunderbolt::obs
