// perfbench_driver — runs one benchmark workload and prints its raw
// measurements as one JSON object on the last line of stdout. run.py builds
// this program, runs it and reduces the record to the benchmark's result.
//
//   perfbench_driver --workload converge|distributed|stream|control-plane
//                    --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Exit codes: 0 record printed (it may still report failed operations),
// 2 bad usage.
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
        opt.trace = value == "1";
      } else if (key == "--workdir") {
        opt.workdir = value;
      } else {
        return usage("unknown flag " + key);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + key);
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::RawResult out;
  try {
    if (opt.workload == "converge") {
      perfbench::run_converge(opt, out);
    } else if (opt.workload == "distributed") {
      perfbench::run_distributed(opt, out);
    } else if (opt.workload == "stream") {
      perfbench::run_stream(opt, out);
    } else if (opt.workload == "control-plane") {
      perfbench::run_control_plane(opt, out);
    } else {
      return usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    if (out.attempted == 0) out.attempted = 1;
    out.fail(std::string("uncaught: ") + e.what());
  }
  std::cout << out.to_json() << std::endl;
  return 0;
}
