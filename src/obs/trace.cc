#include "obs/trace.h"

#include <cstdio>

namespace thunderbolt::obs {

const char* AbortReasonName(AbortReason reason) {
  switch (reason) {
    case AbortReason::kNone:
      return "none";
    case AbortReason::kReadWriteConflict:
      return "read_write_conflict";
    case AbortReason::kCascadeInvalidation:
      return "cascade_invalidation";
    case AbortReason::kValidationFailure:
      return "validation_failure";
    case AbortReason::kLockAcquireFailure:
      return "lock_acquire_failure";
    case AbortReason::kRestartBound:
      return "restart_bound";
  }
  return "unknown";
}

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kTxnSpan:
      return "txn";
    case EventKind::kTxnCommit:
      return "commit";
    case EventKind::kTxnRestart:
      return "restart";
    case EventKind::kBatchSpan:
      return "batch";
    case EventKind::kWave:
      return "wave";
    case EventKind::kValidateSpan:
      return "validate";
    case EventKind::kCrossShardSpan:
      return "cross_shard";
    case EventKind::kEpochFence:
      return "epoch_fence";
    case EventKind::kReconfiguration:
      return "reconfiguration";
    case EventKind::kMigration:
      return "migration";
    case EventKind::kCrash:
      return "crash";
    case EventKind::kWalAppend:
      return "wal_append";
    case EventKind::kWalCheckpoint:
      return "wal_checkpoint";
    case EventKind::kWalRecover:
      return "wal_recover";
    case EventKind::kCrossHoldSpan:
      return "cross_hold";
  }
  return "unknown";
}

bool IsSpanKind(EventKind kind) {
  switch (kind) {
    case EventKind::kTxnSpan:
    case EventKind::kBatchSpan:
    case EventKind::kValidateSpan:
    case EventKind::kCrossShardSpan:
    case EventKind::kWalAppend:
    case EventKind::kWalCheckpoint:
    case EventKind::kWalRecover:
    case EventKind::kCrossHoldSpan:
      return true;
    default:
      return false;
  }
}

Tracer* NullTracerInstance() {
  static NullTracer instance;
  return &instance;
}

RingTracer::RingTracer(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void RingTracer::Record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lk(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[recorded_ % capacity_] = event;
  }
  ++recorded_;
}

size_t RingTracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ring_.size();
}

uint64_t RingTracer::total_recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  return recorded_;
}

uint64_t RingTracer::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
}

void RingTracer::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  ring_.clear();
  recorded_ = 0;
}

std::vector<TraceEvent> RingTracer::Snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (recorded_ <= capacity_) return ring_;
  std::vector<TraceEvent> out;
  out.reserve(capacity_);
  const size_t head = recorded_ % capacity_;  // Oldest surviving event.
  for (size_t i = 0; i < capacity_; ++i) {
    out.push_back(ring_[(head + i) % capacity_]);
  }
  return out;
}

std::string EventToChromeJson(const TraceEvent& event) {
  char buf[256];
  const char* name = EventKindName(event.kind);
  std::string out;
  if (IsSpanKind(event.kind)) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%llu,"
                  "\"dur\":%llu,\"pid\":%u,\"tid\":%u,\"args\":{",
                  name, name, static_cast<unsigned long long>(event.ts_us),
                  static_cast<unsigned long long>(event.dur_us), event.pid,
                  event.tid);
  } else {
    // Instant event, thread scope.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%llu,"
                  "\"s\":\"t\",\"pid\":%u,\"tid\":%u,\"args\":{",
                  name, name, static_cast<unsigned long long>(event.ts_us),
                  event.pid, event.tid);
  }
  out += buf;
  std::snprintf(buf, sizeof(buf), "\"txn\":%llu,\"a\":%llu,\"b\":%llu",
                static_cast<unsigned long long>(event.txn),
                static_cast<unsigned long long>(event.a),
                static_cast<unsigned long long>(event.b));
  out += buf;
  if (event.reason != AbortReason::kNone) {
    out += ",\"reason\":\"";
    out += AbortReasonName(event.reason);
    out += "\"";
  }
  if (event.trace_id != 0) {
    std::snprintf(buf, sizeof(buf),
                  ",\"trace_id\":%llu,\"span_id\":%llu,\"parent_id\":%llu",
                  static_cast<unsigned long long>(event.trace_id),
                  static_cast<unsigned long long>(event.span_id),
                  static_cast<unsigned long long>(event.parent_id));
    out += buf;
  }
  out += "}}";
  return out;
}

std::string FlowToChromeJson(const TraceEvent& event) {
  if (event.flow == FlowPhase::kNone) return "";
  // Binding point: the flow record sits at the span's start timestamp on
  // the span's own track, so the viewer attaches the arrow endpoint to
  // that span. "f" needs bp:"e" (bind to enclosing slice) for the same.
  const char* ph = event.flow == FlowPhase::kStart
                       ? "s"
                       : event.flow == FlowPhase::kStep ? "t" : "f";
  const char* bind = event.flow == FlowPhase::kEnd ? ",\"bp\":\"e\"" : "";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"xshard\",\"cat\":\"flow\",\"ph\":\"%s\","
                "\"id\":%llu,\"ts\":%llu,\"pid\":%u,\"tid\":%u%s}",
                ph, static_cast<unsigned long long>(event.trace_id),
                static_cast<unsigned long long>(event.ts_us), event.pid,
                event.tid, bind);
  return buf;
}

std::string RingTracer::ToChromeJson() const {
  std::vector<TraceEvent> events = Snapshot();
  uint64_t recorded = 0;
  uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    recorded = recorded_;
    dropped = recorded_ > capacity_ ? recorded_ - capacity_ : 0;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
                    "\"recorded_events\":" + std::to_string(recorded) +
                    ",\"dropped_events\":" + std::to_string(dropped) +
                    "},\"traceEvents\":[\n";
  for (size_t i = 0; i < events.size(); ++i) {
    out += EventToChromeJson(events[i]);
    const std::string flow = FlowToChromeJson(events[i]);
    if (!flow.empty()) {
      out += ",\n";
      out += flow;
    }
    if (i + 1 < events.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

bool RingTracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToChromeJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  return written == json.size() && closed;
}

}  // namespace thunderbolt::obs
