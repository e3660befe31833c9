// odh_perfbench: the historian benchmark program. One process runs one
// workload (`ingest`, `history` or `live`) for about --seconds, checks every
// answer against an oracle built from the seeded generators, and prints each
// metric as a text line, an environment stamp, and as the last line of
// stdout one JSON object {"correct", "attempted", "failed", "metrics"}:
// end-to-end metrics for --trace 0, per-layer metrics for --trace 1.
// Exits nonzero when any operation failed or a premise did not hold.
//
//   odh_perfbench --workload history --seed 1 --seconds 10 --trace 0
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness/workload.h"

namespace perfbench {
namespace {

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
constexpr bool kOptimizedBuild = false;
#else
constexpr bool kOptimizedBuild = true;
#endif

int Usage() {
  std::fprintf(stderr,
               "usage: odh_perfbench --workload ingest|history|live "
               "--seed N --seconds S --trace 0|1 [--trace-path FILE] "
               "[--git-sha SHA] [--source-digest HEX]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  std::string git_sha = "unknown";
  std::string digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--trace-path") {
      args.trace_path = value;
    } else if (key == "--git-sha") {
      git_sha = value;
    } else if (key == "--source-digest") {
      digest = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds < 1) return Usage();
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "odh_perfbench: refusing to report from a non-optimized "
                 "build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  int (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "ingest") run = RunIngest;
  if (args.workload == "history") run = RunHistory;
  if (args.workload == "live") run = RunLive;
  if (run == nullptr) return Usage();

  Report report(args.trace);
  report.Stamp("workload", args.workload);
  report.Stamp("seed", static_cast<double>(args.seed));
  report.Stamp("git_sha", git_sha);
  report.Stamp("source_digest", digest);
  report.Stamp("build_type", PERFBENCH_BUILD_TYPE);
  report.Stamp("nproc",
               static_cast<double>(std::thread::hardware_concurrency()));
  const int rc = run(args, &report);
  report.Print(args.workload);
  return rc != 0 || !report.correct() ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
