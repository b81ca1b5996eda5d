#include "bench/bench_util.h"

#include <cstdio>

namespace faasnap {
namespace bench {

ExperimentConfig CellConfig(std::vector<std::string> functions,
                            std::vector<RestoreMode> systems, const std::string& test_input,
                            int reps) {
  Result<TestInputSpec> input = ParseTestInput(test_input);
  FAASNAP_CHECK_OK(input.status());
  ExperimentConfig config;
  config.functions = std::move(functions);
  config.systems = std::move(systems);
  config.test_inputs = {*input};
  config.reps = reps;
  config.admission = AdmitWholeBurst(config.parallelism);
  return config;
}

std::vector<ExperimentCell> RunCells(const ExperimentConfig& config) {
  Result<ExperimentResults> results = RunExperiment(config);
  FAASNAP_CHECK_OK(results.status());
  return std::move(results->cells);
}

std::string StatCell(const RunningStats& stats) {
  return FormatCell("%.1f +- %.1f", stats.mean(), stats.stddev());
}

std::vector<RestoreMode> PaperSystems() {
  return {RestoreMode::kFirecracker, RestoreMode::kReap, RestoreMode::kFaasnap,
          RestoreMode::kCached};
}

std::vector<std::string> AllFunctionNames() {
  std::vector<std::string> functions = SyntheticFunctionNames();
  for (const std::string& f : BenchmarkFunctionNames()) {
    functions.push_back(f);
  }
  return functions;
}

void PrintBanner(const std::string& figure, const std::string& caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), caption.c_str());
  std::printf("================================================================\n\n");
}

}  // namespace bench
}  // namespace faasnap
