// Figure 8: execution time under varying input size ratios. Record with input A;
// test with inputs whose sizes are 1/4x to 4x of A (contents entirely different).
//
// Paper shape: FaaSnap tracks Cached across the whole ratio range; REAP degrades
// sharply when the test input is larger than the record input (at large ratios it
// falls behind even Firecracker for several functions); Firecracker's gap to
// FaaSnap is roughly constant, shrinking in relative terms as compute dominates.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

void Run(int reps) {
  PrintBanner("Figure 8", "execution time under varying input size ratios (ms)");

  // Ratio inputs get fresh content per rep: the paper's test inputs differ
  // entirely from the record input.
  ExperimentConfig config = CellConfig(BenchmarkFunctionNames(), PaperSystems(), "1x", reps);
  config.test_inputs.clear();
  for (const char* ratio : {"0.25x", "0.5x", "1x", "2x", "4x"}) {
    config.test_inputs.push_back(*ParseTestInput(ratio));
  }
  const std::vector<ExperimentCell> cells = RunCells(config);
  // Cells come function by function, then ratio by ratio, then system by system.
  const size_t per_function = 4 * config.test_inputs.size();
  for (size_t f = 0; f < cells.size(); f += per_function) {
    TextTable table({"ratio", "firecracker", "reap", "faasnap", "cached"});
    for (size_t i = f; i < f + per_function; i += 4) {
      table.AddRow({FormatCell("%.2f", config.test_inputs[(i - f) / 4].ratio),
                    StatCell(cells[i].total_ms), StatCell(cells[i + 1].total_ms),
                    StatCell(cells[i + 2].total_ms), StatCell(cells[i + 3].total_ms)});
    }
    std::printf("## %s\n%s\n", cells[f].function.c_str(), table.ToString().c_str());
  }
  std::printf("Paper anchors: FaaSnap overlaps Cached at every ratio; REAP's curve is\n"
              "steeper than all others for ratio > 1 (worse than Firecracker for\n"
              "chameleon, image, and pagerank at large inputs).\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
  faasnap::bench::Run(reps);
  return 0;
}
