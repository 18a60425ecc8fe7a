// perfbench_driver: runs one workload of the acolay benchmark and prints
// its result as the last line of standard output (perfbench/README.md).
//
//   perfbench_driver --workload serve_mix|solve_large|relayer_edit
//                    --seed N --seconds S --trace 0|1
//                    [--serve-bin PATH] [--trace-dir DIR]
//
// --serve-bin defaults to the acolay_serve this package's build produced.
//
// Exit status: 0 when every output checked correct, 1 on any mismatch or
// failed operation (the result line is still printed), 2 on bad usage or
// when the workload could not run at all (no result line).
#include <charconv>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload "
               "serve_mix|solve_large|relayer_edit --seed N --seconds S "
               "--trace 0|1 [--serve-bin PATH] [--trace-dir DIR]\n";
  return 2;
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.serve_bin = PERFBENCH_SERVE_BIN;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + std::string(arg));
    const std::string_view value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      ok = parse_number(value, options.seed);
    } else if (arg == "--seconds") {
      ok = parse_number(value, options.seconds) && options.seconds > 0.0;
    } else if (arg == "--trace") {
      ok = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--serve-bin") {
      options.serve_bin = value;
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage("unknown argument " + std::string(arg));
    }
    if (!ok) return usage("bad value for " + std::string(arg));
  }

  perfbench::Result result;
  try {
    if (options.workload == "serve_mix") {
      result = perfbench::run_serve_mix(options);
    } else if (options.workload == "solve_large") {
      result = perfbench::run_solve_large(options);
    } else if (options.workload == "relayer_edit") {
      result = perfbench::run_relayer_edit(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << options.workload
              << " could not run: " << e.what() << '\n';
    return 2;
  }

  for (const std::string& note : result.notes) std::cout << note << '\n';
  std::cout << result.json() << std::endl;
  return result.correct() ? 0 : 1;
}
