// dart_perfbench — end-to-end DART benchmark (see perfbench/README.md).
//
//   dart_perfbench --workload <fabric_int|query_mix>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke 1] [--trace-out spans.csv]
//
// The last stdout line is the result JSON: {"correct", "attempted",
// "failed", "metrics"}; the end-to-end metrics with --trace 0, the
// per-layer ledger with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"

int main(int argc, char** argv) {
  if (argc % 2 != 1) {
    std::fprintf(stderr, "flags come in --name value pairs\n");
    return 2;
  }
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--smoke") {
      opt.smoke = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }

  std::unique_ptr<perfbench::Workload> workload;
  if (opt.workload == "fabric_int") {
    workload = perfbench::make_fabric_int(opt);
  } else if (opt.workload == "query_mix") {
    workload = perfbench::make_query_mix(opt);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  return perfbench::run_workload(opt, *workload);
}
