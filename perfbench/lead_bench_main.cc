// lead_bench: runs one LEAD benchmark workload and prints its metrics.
//
//   lead_bench --workload <online_long|fleet_dense> --seed <n>
//              --seconds <s> --trace <0|1>
//              [--trace-out <file>] [--result-out <file>] [--work-dir <dir>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics untraced,
// per-layer metrics traced). Lines before it carry the provenance, the
// workload parameters and, in traced mode, the per-layer self-time
// table. --result-out also writes all of it as one JSON document;
// --work-dir (default .) holds a traced run's short-lived model copy. The
// exit status is 1 when any output failed its check, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_core.h"
#include "io/geojson.h"
#include "workloads.h"

using namespace lead::perfbench;

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "lead_bench: %s\nusage: lead_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--result-out <file>] [--work-dir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  std::string result_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--result-out") {
      result_out = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  WorkloadParams params;
  if (!LookupWorkload(workload, &params)) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!have_seed) return Usage("--seed is required");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  const RunResult result = RunWorkload(params, config);

  JsonObject metrics;
  for (const auto& [name, metric] : result.metrics) {
    JsonObject m;
    m.Num("value", metric.value).Str("unit", metric.unit);
    metrics.Obj(name, m);
  }
  std::string errors = "[";
  for (const std::string& error : result.errors) {
    if (errors.size() > 1) errors += ", ";
    errors += '"';
    errors += lead::io::JsonEscape(error);
    errors += '"';
  }
  errors += "]";
  const JsonObject provenance = ProvenanceJson();

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "lead_bench: invalid output: %s\n", error.c_str());
  }
  std::printf("provenance %s\n", provenance.ToString().c_str());
  std::printf("params %s\n", result.params.ToString().c_str());
  if (!result.self_time_table.empty()) {
    std::printf("self time per span (traced pass):\n%s",
                result.self_time_table.c_str());
  }
  if (!result_out.empty()) {
    JsonObject full;
    full.Obj("provenance", provenance)
        .Obj("params", result.params)
        .Bool("correct", result.correct)
        .Int("attempted", result.attempted)
        .Int("failed", result.failed)
        .Raw("errors", errors)
        .Obj("metrics", metrics)
        .Str("self_time_table", result.self_time_table);
    std::ofstream out(result_out);
    out << full.ToString() << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "lead_bench: cannot write %s\n", result_out.c_str());
    }
  }
  JsonObject line;
  line.Bool("correct", result.correct)
      .Int("attempted", result.attempted)
      .Int("failed", result.failed)
      .Obj("metrics", metrics);
  std::printf("%s\n", line.ToString().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
