// Extension (paper section 7.3): memory footprints.
//
// "On average [FaaSnap] consumes 6% more memory than Firecracker (anonymous and
// page cache combined), although not always... Prefetching the working set into
// the page cache does not significantly increase the memory footprint because the
// working set is likely going to be loaded on-demand in Firecracker snapshots."
//
// This bench measures, at invocation completion, the VM's resident anonymous
// pages plus the host page cache, per function and system.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

double Mb(uint64_t pages) { return static_cast<double>(PagesToBytes(pages)) / (1024.0 * 1024.0); }

void Run() {
  PrintBanner("Extension: memory footprints (section 7.3)",
              "anonymous + page cache at invocation completion (MB)");

  TextTable table({"function", "firecracker", "reap", "faasnap", "faasnap/firecracker"});
  double ratio_sum = 0;
  int count = 0;
  // Test input B is input A for the fixed-input synthetic functions.
  const std::vector<ExperimentCell> cells = RunCells(CellConfig(
      AllFunctionNames(), {RestoreMode::kFirecracker, RestoreMode::kReap, RestoreMode::kFaasnap},
      "B", 1));
  for (size_t i = 0; i < cells.size(); i += 3) {
    double mb[3];
    for (int k = 0; k < 3; ++k) {
      const InvocationReport& r = cells[i + k].sample;
      mb[k] = Mb((r.anon_resident_pages + r.page_cache_pages).value());
    }
    const double ratio = mb[2] / mb[0];
    ratio_sum += ratio;
    ++count;
    table.AddRow({cells[i].function, FormatCell("%.1f", mb[0]), FormatCell("%.1f", mb[1]),
                  FormatCell("%.1f", mb[2]), FormatCell("%.2fx", ratio)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("average faasnap/firecracker footprint ratio: %.2fx (paper: ~1.06x, and\n"
              "FaaSnap uses less memory than Firecracker for some functions).\n",
              ratio_sum / count);
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main() {
  faasnap::bench::Run();
  return 0;
}
