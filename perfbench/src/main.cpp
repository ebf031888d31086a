// rfipc_perfbench — one run of one benchmark workload.
//
//   rfipc_perfbench --workload <inline_skewed|inline_unique|wire_read|update_churn>
//                   --seed N --seconds S --trace 0|1 [--workdir DIR]
//                   [--setup-only 1]
//
// Prints a detail line (host and build stamp, sample counts, oracle
// findings) and then, as the last line, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every answer was correct, 1 on a wrong answer,
// 2 on bad arguments, 3 when built with a sanitizer (the numbers would
// measure the sanitizer, not rfipc).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rfipc_perfbench --workload "
               "<inline_skewed|inline_unique|wire_read|update_churn> --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--setup-only 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opts.trace = std::string(val) == "1";
    } else if (key == "--workdir") {
      opts.workdir = val;
    } else if (key == "--setup-only") {
      opts.setup_only = std::string(val) == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || !(opts.seconds > 0.0)) return usage();

  const std::string san = perfbench::sanitizer_name();
  if (!san.empty()) {
    std::fprintf(stderr,
                 "rfipc_perfbench: built with the %s sanitizer; its numbers would "
                 "measure the sanitizer, not rfipc. Build RelWithDebInfo without it.\n",
                 san.c_str());
    return 3;
  }

  perfbench::Result r;
  try {
    if (workload == "inline_skewed") {
      r = perfbench::run_inline(perfbench::Traffic::kSkewed, opts);
    } else if (workload == "inline_unique") {
      r = perfbench::run_inline(perfbench::Traffic::kUnique, opts);
    } else if (workload == "wire_read") {
      r = perfbench::run_wire(false, opts);
    } else if (workload == "update_churn") {
      r = perfbench::run_wire(true, opts);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rfipc_perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", perfbench::detail_json(workload, opts.seed, r).c_str());
  std::printf("%s\n", perfbench::result_json(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
