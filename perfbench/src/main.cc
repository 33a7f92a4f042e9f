/// saber_perfbench — the end-to-end benchmark's load generator and checker.
///
///   saber_perfbench --workload W --seed N --seconds S --trace 0|1
///                   [--server PATH] [--out-dir DIR] [--processors P]
///                   [--scheduler fcfs|hls]
///   saber_perfbench --selftest
///
/// Progress goes to stderr; the last line of stdout is the JSON result.
/// perfbench/run.py builds this binary and is the command to run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "checks.h"
#include "harness.h"

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: saber_perfbench --workload remote_select|"
               "hybrid_two_query|small_task_agg --seed N --seconds S "
               "--trace 0|1 [--server PATH] [--out-dir DIR] "
               "[--processors cpu|gpu|hybrid] [--scheduler fcfs|hls]\n"
               "       saber_perfbench --selftest\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return perfbench::RunSelfTest();
    if (i + 1 >= argc) Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atoi(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--server") {
      args.server = v;
    } else if (a == "--out-dir") {
      args.out_dir = v;
    } else if (a == "--processors" &&
               (v == "cpu" || v == "gpu" || v == "hybrid")) {
      args.processors = v;
    } else if (a == "--scheduler" && (v == "fcfs" || v == "hls")) {
      args.scheduler = v;
    } else {
      Usage();
    }
  }
  if (args.seconds < 1) Usage();
  perfbench::Report report;
  if (args.workload == "remote_select") {
    if (args.server.empty()) Usage();
    report = perfbench::RunRemoteSelect(args);
  } else if (args.workload == "hybrid_two_query" ||
             args.workload == "small_task_agg") {
    report = perfbench::RunInProcess(args);
  } else {
    Usage();
  }
  std::printf("%s\n", report.Json().c_str());
  return report.correct ? 0 : 1;
}
