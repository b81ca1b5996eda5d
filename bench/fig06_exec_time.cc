// Figure 6: end-to-end execution time of the nine variable-input benchmark
// functions under Firecracker, REAP, FaaSnap, and Cached. Left half: record with
// input A, test with input B; right half: record with B, test with A.
//
// Paper shape: FaaSnap is the fastest non-Cached system for every function
// (average 2.0x over Firecracker, 1.4x over REAP; the REAP gap is larger when the
// test input is the bigger B), and is within a few percent of Cached on average.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

void RunDirection(const std::string& title, const std::string& record_input,
                  const std::string& test_input, int reps) {
  std::printf("## %s\n\n", title.c_str());
  TextTable table({"function", "firecracker", "reap", "faasnap", "cached",
                   "fc/faasnap", "reap/faasnap", "faasnap/cached"});
  double fc_ratio_sum = 0;
  double reap_ratio_sum = 0;
  double cached_ratio_sum = 0;
  int count = 0;
  ExperimentConfig config =
      CellConfig(BenchmarkFunctionNames(), PaperSystems(), test_input, reps);
  config.record_input = *ParseTestInput(record_input);
  const std::vector<ExperimentCell> cells = RunCells(config);
  // Cells come function by function, systems in PaperSystems() order.
  for (size_t i = 0; i < cells.size(); i += 4) {
    const RunningStats& fc = cells[i].total_ms;
    const RunningStats& reap = cells[i + 1].total_ms;
    const RunningStats& faasnap = cells[i + 2].total_ms;
    const RunningStats& cached = cells[i + 3].total_ms;
    const double fc_ratio = fc.mean() / faasnap.mean();
    const double reap_ratio = reap.mean() / faasnap.mean();
    const double cached_ratio = faasnap.mean() / cached.mean();
    fc_ratio_sum += fc_ratio;
    reap_ratio_sum += reap_ratio;
    cached_ratio_sum += cached_ratio;
    ++count;
    table.AddRow({cells[i].function, StatCell(fc), StatCell(reap), StatCell(faasnap),
                  StatCell(cached), FormatCell("%.2fx", fc_ratio),
                  FormatCell("%.2fx", reap_ratio), FormatCell("%.2fx", cached_ratio)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("averages: firecracker/faasnap = %.2fx, reap/faasnap = %.2fx, "
              "faasnap/cached = %.2fx\n\n",
              fc_ratio_sum / count, reap_ratio_sum / count, cached_ratio_sum / count);
}

void Run(int reps) {
  PrintBanner("Figure 6", "execution time of the benchmark functions (ms)");
  RunDirection("record phase input A, test phase input B", "A", "B", reps);
  RunDirection("record phase input B, test phase input A", "B", "A", reps);
  std::printf("Paper anchors: FaaSnap improves on Firecracker ~2.0x and on REAP ~1.4x on\n"
              "average (1.55x when testing with the larger input B, 1.16x with A); FaaSnap\n"
              "averages within a few percent of Cached.\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 5;
  faasnap::bench::Run(reps);
  return 0;
}
