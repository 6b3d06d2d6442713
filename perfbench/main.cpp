// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 1
//             --trace-out <path>
//
// Runs one workload (large_doc, serve_mixed) against the public DART API,
// checks every output, and prints as its last line one JSON object:
//   {"correct": …, "attempted": …, "failed": …,
//    "metrics": {<name>: {"value": …, "unit": …}, …}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Every other line starts with "# ". See README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

using perfbench::RunOptions;
using perfbench::WorkloadResult;

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<large_doc|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n"
               "(--trace-out is required with --trace 1)\n",
               problem.c_str());
  std::exit(2);
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ",
                std::gmtime(&now));
  return buffer;
}

void PrintResult(const WorkloadResult& result, bool trace) {
  const auto& metrics = trace ? result.per_layer : result.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.failed == 0 && result.attempted > 0 ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN or infinity; a ratio over an empty phase reads 0.
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(options.seconds > 0)) Usage("--seconds must be positive");
  if (options.trace && trace_out.empty()) {
    Usage("--trace 1 needs --trace-out");
  }

  perfbench::Log("run start " + UtcNow() + " workload=" + options.workload +
                 " seed=" + std::to_string(options.seed) +
                 " seconds=" + std::to_string(options.seconds) +
                 " trace=" + (options.trace ? "1" : "0"));
  WorkloadResult result;
  if (options.workload == "large_doc") {
    result = perfbench::RunLargeDoc(options, trace_out);
  } else if (options.workload == "serve_mixed") {
    result = perfbench::RunServeMixed(options, trace_out);
  } else {
    Usage("unknown workload " + options.workload);
  }
  perfbench::Log("run end " + UtcNow());
  PrintResult(result, options.trace);
  return 0;
}
