#include "bench_core.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "io/geojson.h"
#include "nn/simd_gemm.h"

namespace lead::perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double clamped = std::clamp(q, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

std::string CheckDetection(const core::Detection& detection) {
  const int n = detection.num_stays;
  if (n < 2) return "fewer than 2 stay points";
  const size_t expected = static_cast<size_t>(n) * (n - 1) / 2;
  if (detection.candidates.size() != expected) {
    return "candidate count " + std::to_string(detection.candidates.size()) +
           " != n(n-1)/2 = " + std::to_string(expected);
  }
  if (detection.probabilities.size() != expected) {
    return "probability count " +
           std::to_string(detection.probabilities.size()) + " != " +
           std::to_string(expected);
  }
  size_t best = 0;
  for (size_t i = 0; i < expected; ++i) {
    const float p = detection.probabilities[i];
    if (!std::isfinite(p) || p < 0.0f || p > 1.0f) {
      return "probability " + std::to_string(i) + " = " + std::to_string(p) +
             " is not a finite value in [0, 1]";
    }
    if (p > detection.probabilities[best]) best = i;
  }
  if (!(detection.loaded == detection.candidates[best])) {
    return "loaded candidate is not the argmax of the probabilities";
  }
  return "";
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
std::string Quoted(const std::string& text) {
  std::string out = "\"";
  out += io::JsonEscape(text);
  out += '"';
  return out;
}
}  // namespace

JsonObject& JsonObject::Num(const std::string& key, double value) {
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quoted(value));
  return *this;
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.ToString());
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quoted(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  return out + "}";
}

JsonObject ProvenanceJson() {
  const char* isa = nn::internal::GemmAvx512Available() ? "avx512"
                    : nn::internal::GemmAvx2Available() ? "avx2"
                                                        : "scalar";
  JsonObject json;
  json.Int("host_cores",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("gemm_isa", isa)
      .Str("build_type", LEAD_BENCH_BUILD_TYPE)
      .Str("compiler", LEAD_BENCH_COMPILER)
      .Str("git_rev", LEAD_BENCH_GIT_REV);
  return json;
}

}  // namespace lead::perfbench
