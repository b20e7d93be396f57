// Layer spans for the benchmark's traced mode.
//
// A LayerSpan times one call into a layer's public function on the
// calling thread. Each span is kept in a SpanRecorder (for the per-layer
// self-time table) and is also emitted into the library's obs::Tracer,
// so the Chrome trace-event JSON written at the end shows the benchmark's
// layer spans nested over the library's own spans and pool lanes. With a
// null recorder a LayerSpan does nothing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace lead::perfbench {

struct SpanRecord {
  const char* name;  // static string, "<layer>.<what>"
  uint64_t ts_us = 0;
  uint64_t dur_us = 0;
  uint64_t child_us = 0;  // time inside directly nested spans
  int depth = 0;
};

struct LayerTime {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  // total minus directly nested spans
};

class SpanRecorder {
 public:
  // Opens a span; returns its index for Close().
  size_t Open(const char* name);
  void Close(size_t index);
  // Per-name totals over every closed span.
  std::map<std::string, LayerTime> Totals() const;
  // Sum of `name`'s durations, in ms.
  double TotalMs(const std::string& name) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;
};

// Self-time table: one row per span name, sorted by self time, with the
// share of the summed self time (which equals the summed root spans).
std::string FormatSelfTimeTable(const std::map<std::string, LayerTime>& totals);

class LayerSpan {
 public:
  LayerSpan(SpanRecorder* recorder, const char* name);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  size_t index_ = 0;
  std::unique_ptr<obs::ScopedSpan> trace_span_;
};

}  // namespace lead::perfbench
