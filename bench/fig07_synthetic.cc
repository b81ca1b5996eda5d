// Figure 7: execution time of the three synthetic functions (hello-world, mmap,
// read-list) under Firecracker, REAP, FaaSnap, and Cached snapshots. Record and
// test phases use the same input.
//
// Paper shape: FaaSnap fastest of the snapshot systems on hello-world and mmap
// (on mmap, Cached is slower than FaaSnap because minor faults from the page
// cache cost more than anonymous faults); REAP pays a long setup for the large
// working sets; Firecracker is slowest overall.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

void Run(int reps) {
  PrintBanner("Figure 7", "execution time of the three synthetic functions (ms)");

  TextTable table({"function", "firecracker", "reap", "faasnap", "cached"});
  const std::vector<ExperimentCell> cells =
      RunCells(CellConfig(SyntheticFunctionNames(), PaperSystems(), "A", reps));
  for (size_t i = 0; i < cells.size(); i += 4) {
    table.AddRow({cells[i].function, StatCell(cells[i].total_ms),
                  StatCell(cells[i + 1].total_ms), StatCell(cells[i + 2].total_ms),
                  StatCell(cells[i + 3].total_ms)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Expected shape (paper): hello-world ~189/70/70/67; FaaSnap beats REAP and\n"
              "Firecracker on mmap via anonymous mappings; Cached leads read-list.\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 5;
  faasnap::bench::Run(reps);
  return 0;
}
