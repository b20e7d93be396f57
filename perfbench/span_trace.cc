#include "span_trace.h"

#include <algorithm>
#include <cstdio>

namespace lead::perfbench {

size_t SpanRecorder::Open(const char* name) {
  SpanRecord record;
  record.name = name;
  record.depth = static_cast<int>(open_.size());
  record.ts_us = obs::NowMicros();
  spans_.push_back(record);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::Close(size_t index) {
  SpanRecord& record = spans_[index];
  record.dur_us = obs::internal::MonotonicDelta(record.ts_us, obs::NowMicros());
  // Spans close in LIFO order, so the span under `index` is its parent.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  if (!open_.empty()) spans_[open_.back()].child_us += record.dur_us;
}

std::map<std::string, LayerTime> SpanRecorder::Totals() const {
  std::map<std::string, LayerTime> totals;
  for (const SpanRecord& record : spans_) {
    LayerTime& t = totals[record.name];
    t.count += 1;
    t.total_ms += static_cast<double>(record.dur_us) * 1e-3;
    t.self_ms +=
        static_cast<double>(record.dur_us - std::min(record.dur_us,
                                                     record.child_us)) *
        1e-3;
  }
  return totals;
}

double SpanRecorder::TotalMs(const std::string& name) const {
  double total = 0.0;
  for (const SpanRecord& record : spans_) {
    if (name == record.name) total += static_cast<double>(record.dur_us);
  }
  return total * 1e-3;
}

std::string FormatSelfTimeTable(
    const std::map<std::string, LayerTime>& totals) {
  std::vector<std::pair<std::string, LayerTime>> rows(totals.begin(),
                                                      totals.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  double self_sum = 0.0;
  for (const auto& row : rows) self_sum += row.second.self_ms;
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-26s %8s %12s %12s %7s\n", "span",
                "calls", "total_ms", "self_ms", "self%");
  out += line;
  for (const auto& [name, t] : rows) {
    const double share = self_sum > 0.0 ? 100.0 * t.self_ms / self_sum : 0.0;
    std::snprintf(line, sizeof(line), "%-26s %8lld %12.3f %12.3f %6.1f%%\n",
                  name.c_str(), static_cast<long long>(t.count), t.total_ms,
                  t.self_ms, share);
    out += line;
  }
  return out;
}

LayerSpan::LayerSpan(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  trace_span_ = std::make_unique<obs::ScopedSpan>(obs::kCatBench, name);
  index_ = recorder_->Open(name);
}

LayerSpan::~LayerSpan() {
  if (recorder_ == nullptr) return;
  recorder_->Close(index_);
  trace_span_.reset();
}

}  // namespace lead::perfbench
