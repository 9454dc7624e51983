// cs2p_perfbench: one workload per invocation, end-to-end metrics by
// default, per-layer metrics with --trace 1. The last line of standard
// output is the JSON result; everything else goes to standard error or is
// a '#' comment line.
//
//   cs2p_perfbench --workload serve_mux|retrain_shift --seed N
//                  --seconds S --trace 0|1 [--world-seed N] [--spans-dir DIR]
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  args.process_start_ns = now_ns();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") args.trace = std::string(value) == "1";
    else if (key == "--world-seed") args.world_seed = std::strtoull(value, nullptr, 10);
    else if (key == "--spans-dir") args.spans_dir = value;
    else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.trace) ::mkdir(args.spans_dir.c_str(), 0755);
  std::printf("# workload=%s seed=%llu world_seed=%llu world_sessions=%zu "
              "seconds=%g trace=%d setup_reps=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.world_seed), kWorldSessions,
              args.seconds, args.trace ? 1 : 0, kSetupReps);
  try {
    Result result;
    RunOutcome outcome;
    if (args.workload == "serve_mux") outcome = run_serve_mux(args, result);
    else if (args.workload == "retrain_shift") outcome = run_retrain_shift(args, result);
    else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    result.print(outcome.correct, outcome.attempted, outcome.failed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cs2p_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
