#include "benchutil/runner.hpp"

#include <chrono>
#include <climits>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace gpa::benchutil {

Stats run_benchmark(const std::function<void()>& fn, const RunConfig& cfg) {
  for (int i = 0; i < cfg.warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(cfg.iterations));
  for (int i = 0; i < cfg.iterations; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  return compute_stats(std::move(samples));
}

BenchArgs parse_bench_args(int argc, char** argv, int default_warmup, int default_iters,
                           bool writes_json) {
  BenchArgs args;
  args.run.warmup = default_warmup;
  args.run.iterations = default_iters;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next_value = [&](const char* flag) -> std::string {
      GPA_CHECK(i + 1 < argc, std::string(flag) + " requires a value");
      return argv[++i];
    };
    if (a == "--paper-scale") {
      args.paper_scale = true;
      // The paper's measurement protocol comes with its scale.
      args.run.warmup = 10;
      args.run.iterations = 15;
    } else if (a == "--smoke") {
      args.smoke = true;
      args.run.warmup = 1;
      args.run.iterations = 2;
    } else if (a == "--csv") {
      args.csv_path = next_value("--csv");
    } else if (a == "--json") {
      if (!writes_json) throw InvalidArgument("--json: this bench writes no record");
      args.json_path = next_value("--json");
    } else if (a == "--warmup") {
      args.run.warmup = static_cast<int>(parse_integer(a, next_value("--warmup"), 0, INT_MAX));
    } else if (a == "--iters") {
      args.run.iterations = static_cast<int>(parse_integer(a, next_value("--iters"), 1, INT_MAX));
    } else {
      throw InvalidArgument("unknown flag " + a);
    }
  }
  return args;
}

}  // namespace gpa::benchutil
