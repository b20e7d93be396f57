// bench_trend: warn-only trend comparison over the append-only
// BENCH_*.json logs that the bench binaries emit (one flat JSON object
// per line). Each row is split into an *identity* (the string fields
// plus numeric configuration like threads/scale/passes) and *metrics*
// (numeric fields whose names mark them as a rate or a duration); for
// every (file, identity, metric) the newest row is compared against the
// previous one and rendered as a table, flagging moves beyond a 15%
// band as REGRESSED or improved. The hardware tags (host_cores, isa,
// build_type) are identity, so a row is compared only with rows from the
// same hardware; git_rev is provenance and stays out of the identity, so
// a revision is compared with the revisions before it. The tool never
// fails a build on a regression — machines vary run to run, and the
// logs mix host generations — it exists so a drifting benchmark is
// *seen* in CI output, not to gate it. Exit status: 0 after any
// successful comparison (regressions included), 2 on usage errors or
// unreadable input.
//
// Metric direction is inferred from the field name:
//   higher-better:  contains "per_sec" or "speedup"
//   lower-better:   contains "seconds", "sec_per", "latency", or ends
//                   in "_ms"/"_us"/"_ns"
// Any other numeric field (threads, scale, trajectories, ...) is
// configuration and joins the identity key.
//
// Usage:
//   bench_trend <BENCH_file.json>...

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Flat-object JSON row parsing (string and number values only; nested
// values would be a format change worth failing loudly on).
// ---------------------------------------------------------------------------

struct Row {
  std::vector<std::pair<std::string, std::string>> strings;
  std::vector<std::pair<std::string, double>> numbers;
};

void SkipSpace(const std::string& s, size_t* i) {
  while (*i < s.size() &&
         (s[*i] == ' ' || s[*i] == '\t' || s[*i] == '\r')) {
    ++*i;
  }
}

bool ParseString(const std::string& s, size_t* i, std::string* out) {
  if (*i >= s.size() || s[*i] != '"') return false;
  ++*i;
  out->clear();
  while (*i < s.size() && s[*i] != '"') {
    if (s[*i] == '\\' && *i + 1 < s.size()) ++*i;  // keep escaped char raw
    out->push_back(s[*i]);
    ++*i;
  }
  if (*i >= s.size()) return false;
  ++*i;  // closing quote
  return true;
}

bool ParseRow(const std::string& line, Row* out) {
  size_t i = 0;
  SkipSpace(line, &i);
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  while (true) {
    SkipSpace(line, &i);
    if (i < line.size() && line[i] == '}') return true;
    std::string key;
    if (!ParseString(line, &i, &key)) return false;
    SkipSpace(line, &i);
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    SkipSpace(line, &i);
    if (i < line.size() && line[i] == '"') {
      std::string value;
      if (!ParseString(line, &i, &value)) return false;
      out->strings.emplace_back(key, value);
    } else {
      char* end = nullptr;
      const double value = std::strtod(line.c_str() + i, &end);
      if (end == line.c_str() + i) return false;
      i = static_cast<size_t>(end - line.c_str());
      out->numbers.emplace_back(key, value);
    }
    SkipSpace(line, &i);
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    if (i < line.size() && line[i] == '}') return true;
    return false;
  }
}

// ---------------------------------------------------------------------------
// Metric classification
// ---------------------------------------------------------------------------

enum class Direction { kConfig, kHigherBetter, kLowerBetter };

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

Direction Classify(const std::string& name) {
  if (name.find("per_sec") != std::string::npos ||
      name.find("speedup") != std::string::npos) {
    return Direction::kHigherBetter;
  }
  if (name.find("seconds") != std::string::npos ||
      name.find("sec_per") != std::string::npos ||
      name.find("latency") != std::string::npos || EndsWith(name, "_ms") ||
      EndsWith(name, "_us") || EndsWith(name, "_ns")) {
    return Direction::kLowerBetter;
  }
  return Direction::kConfig;
}

// The identity key: every string field but the git_rev provenance tag,
// plus every configuration number, sorted by field name so reordered
// emitters still group.
std::string IdentityKey(const Row& row) {
  std::map<std::string, std::string> parts;
  for (const auto& [key, value] : row.strings) {
    if (key != "git_rev") parts[key] = value;
  }
  for (const auto& [key, value] : row.numbers) {
    if (Classify(key) != Direction::kConfig) continue;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    parts[key] = buf;
  }
  std::string out;
  for (const auto& [key, value] : parts) {
    out += key + "=" + value + " ";
  }
  if (!out.empty()) out.pop_back();
  return out;
}

int Usage() {
  std::fprintf(stderr, "usage: bench_trend <BENCH_file.json>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  constexpr double kBandPercent = 15.0;
  size_t comparisons = 0;
  size_t regressions = 0;

  for (int a = 1; a < argc; ++a) {
    const std::string path = argv[a];
    std::ifstream in(path);
    if (!in.good()) {
      std::fprintf(stderr, "bench_trend: cannot read %s\n", path.c_str());
      return 2;
    }
    // newest-last history per (identity, metric) for this file.
    std::map<std::pair<std::string, std::string>, std::vector<double>>
        history;
    std::map<std::string, Direction> direction;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      Row row;
      if (!ParseRow(line, &row)) {
        std::fprintf(stderr, "bench_trend: %s:%d: unparseable row\n",
                     path.c_str(), lineno);
        return 2;
      }
      const std::string identity = IdentityKey(row);
      for (const auto& [key, value] : row.numbers) {
        const Direction dir = Classify(key);
        if (dir == Direction::kConfig) continue;
        direction[key] = dir;
        history[{identity, key}].push_back(value);
      }
    }

    std::printf("== %s ==\n", path.c_str());
    std::printf("%-52s %-22s %12s %12s %8s  %s\n", "identity", "metric",
                "previous", "latest", "delta", "trend");
    for (const auto& [key, values] : history) {
      if (values.size() < 2) continue;
      const double prev = values[values.size() - 2];
      const double latest = values.back();
      ++comparisons;
      // Exact zero tests: prev is a guard against dividing by a
      // literal 0 the emitter wrote, not a numeric comparison.
      const double delta =
          prev != 0.0  // lead-lint: allow(float-eq)
              ? (latest - prev) / std::fabs(prev) * 100.0
              : (latest == 0.0 ? 0.0 : 100.0);  // lead-lint: allow(float-eq)
      const bool higher_better =
          direction[key.second] == Direction::kHigherBetter;
      const bool outside = std::fabs(delta) > kBandPercent;
      const bool worse = higher_better ? delta < 0.0 : delta > 0.0;
      const char* trend = !outside ? "steady"
                          : worse  ? "REGRESSED"
                                   : "improved";
      if (outside && worse) ++regressions;
      std::printf("%-52s %-22s %12.6g %12.6g %+7.1f%%  %s\n",
                  key.first.c_str(), key.second.c_str(), prev, latest, delta,
                  trend);
    }
    std::printf("\n");
  }

  std::printf(
      "bench_trend: %zu comparison(s), %zu regression(s) beyond the "
      "+/-%.0f%% band (warn-only; benchmarks vary across hosts)\n",
      comparisons, regressions, kBandPercent);
  return 0;
}
