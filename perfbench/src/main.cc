// perfbench: the repository's end-to-end benchmark. See README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--spill-dir <dir>] [--git-sha <sha>]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--spill-dir <dir>] "
               "[--git-sha <sha>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--spill-dir") {
      config.spill_dir = value;
    } else if (flag == "--git-sha") {
      config.git_sha = value;
    } else {
      return Usage();
    }
  }
  if (config.workload.empty() || config.seconds <= 0) return Usage();
  return perfbench::Run(config);
}
