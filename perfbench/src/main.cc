// planbench: runs one named workload of the repository benchmark and prints
// its metrics. Usage:
//
//   planbench --workload cold-mediate|hot-mix|large-order --seed N
//             --seconds S --trace 0|1 [--trace-out spans.tsv]
//             [--work-dir DIR]
//             [--inject drop-answer|swap-emission|ranked-order]
//
// Output: a {"host": ...} line (nproc, compiler, build type, seed), a
// {"counts": ...} line of per-round counts that repeat exactly for a seed,
// and last a {"correct", "attempted", "failed", "metrics"} line. --trace 0
// gives the end-to-end metrics; --trace 1 runs the workload untraced and
// then traced for half the time each and gives the per-layer metrics. Exits
// 1 when a correctness check fails, 2 on bad arguments.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

int HardwareThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return int(std::max(1u, std::thread::hardware_concurrency()));
}

int Usage() {
  std::cerr << "usage: planbench --workload cold-mediate|hot-mix|large-order "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--work-dir DIR] [--inject KIND]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  options.nproc = HardwareThreads();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--inject") {
      if (value != "drop-answer" && value != "swap-emission" &&
          value != "ranked-order") {
        return Usage();
      }
      options.inject = value;
    } else {
      return Usage();
    }
  }
  WorkloadResult result;
  if (options.workload == "cold-mediate") {
    result = RunColdMediate(options);
  } else if (options.workload == "hot-mix") {
    result = RunHotMix(options);
  } else if (options.workload == "large-order") {
    result = RunLargeOrder(options);
  } else {
    return Usage();
  }

  std::cout << "{\"host\": {\"nproc\": " << options.nproc
            << ", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed
            << ", \"seconds\": " << options.seconds
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"clients\": " << result.untraced.clients
            << ", \"rounds\": " << result.untraced.rounds.size() << "}}\n";
  std::cout << "{\"counts\": {";
  const char* sep = "";
  for (const auto& [name, value] : result.counts) {
    std::cout << sep << "\"" << name << "\": " << value;
    sep = ", ";
  }
  std::cout << "}}\n";
  for (const std::string& error : result.errors) {
    std::cerr << "check failed: " << error << "\n";
  }

  const Tally& plain = result.untraced.tally;
  const Tally& traced = result.traced.tally;
  const Metrics metrics = options.trace ? PerLayer(result, options.trace_out)
                                        : EndToEnd(result);
  const bool correct = result.errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << plain.attempted + traced.attempted
            << ", \"failed\": " << plain.failed + traced.failed
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
