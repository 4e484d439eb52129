// perfbench_driver — one end-to-end benchmark run:
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//   perfbench_driver --provenance    (build type and compiler, as JSON)
//
// Workloads: paper_n100, crowd_n200 (simulator) and net_loopback (TCP).
// Prints named metrics with units, the per-layer profile of a traced run,
// and as the last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. perfbench/run.py builds
// this binary and is the usual entry point.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload paper_n100|crowd_n200|"
               "net_loopback --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--provenance") == 0) {
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::printf(
        "{\"build_type\": \"%s\", \"compiler\": \"%s\", \"ndebug\": %s}\n",
        PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, ndebug ? "true" : "false");
    return 0;
  }
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || options.seconds <= 0) return usage();
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage();
      }
      options.trace = value[0] == '1';
    } else {
      return usage();
    }
  }

  perfbench::Result result;
  int rc = 2;
  if (options.workload == "net_loopback") {
    rc = perfbench::run_net_workload(options, result);
  } else {
    rc = perfbench::run_sim_workload(options, result);
  }
  if (rc == 2) return usage();
  if (rc != 0) return rc;
  // A name outside the grammar BENCHMARK.json admits is a benchmark bug.
  for (const auto* list : {&result.metrics, &result.details}) {
    for (const perfbench::Metric& m : *list) {
      if (!perfbench::valid_metric_name(m.name)) {
        result.fail("metric name outside [A-Za-z0-9_.-]: " + m.name);
      }
    }
  }
  perfbench::print_result(options, result);
  return 0;
}
