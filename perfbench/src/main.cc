// The benchmark binary: runs one workload once and prints its report
// as a single JSON line (the last line of standard output). perfbench/
// run.py builds this binary and turns the report into the benchmark's
// result; run it directly only for debugging:
//
//   wfit_perfbench --workload paper_trace --seed 1 --seconds 10 --trace 0
//       --work-dir <work dir>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "obs/log.h"
#include "obs/trace.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::RunArgs* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      std::cerr << "unknown argument " << key << "\n";
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: wfit_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n";
    return 2;
  }
  // Spans are recorded only where a traced run switches them on.
  wfit::obs::SetTracingEnabled(false);
  wfit::obs::SetLogLevel(wfit::obs::LogLevel::kWarn);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  perfbench::Report report;
  if (args.workload == "paper_trace") {
    perfbench::RunPaperTrace(args, &report);
  } else if (args.workload == "durable_node") {
    perfbench::RunDurableNode(args, &report);
  } else if (args.workload == "oltp_dba") {
    perfbench::RunOltpDba(args, &report);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  std::cout.flush();
  report.WriteJson(std::cout);
  return report.correct ? 0 : 1;
}
