// Workload-independent pieces of the LEAD benchmark: percentiles, the
// per-call output check, process memory, provenance, and a small JSON
// object writer for the result line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/lead.h"

namespace lead::perfbench {

// Percentile `q` in [0, 100] of `samples` by linear interpolation between
// the two closest ranks (the NumPy "linear" method): rank q/100 * (n - 1)
// of the sorted samples. Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

// Validates one detection against the output contract: the candidate
// count is n(n-1)/2 for n stay points, one probability per candidate,
// every probability finite and in [0, 1], and `loaded` equal to the
// candidate with the highest probability (first one on ties). Returns an
// empty string when valid, otherwise what is wrong.
std::string CheckDetection(const core::Detection& detection);

// Peak resident set size of this process so far, in MiB (getrusage).
double PeakRssMb();

// Ordered JSON object writer (keys keep insertion order). Numbers are
// written with enough digits to round-trip.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  // Pre-serialized JSON value.
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Where a result was measured: host cores, the GEMM kernel the library
// dispatches to ("avx512", "avx2" or "scalar"), build type, compiler and
// git revision ("unknown" outside a git checkout).
JsonObject ProvenanceJson();

}  // namespace lead::perfbench
