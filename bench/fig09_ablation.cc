// Figure 9: optimization steps and their effects, for the image function:
// Firecracker -> +concurrent paging -> +per-region mapping -> full FaaSnap.
// Reports invocation time, number of major page faults, total page fault time,
// and the number of block read requests caused by VM page faults.
//
// Paper shape: concurrent paging cuts majors/blocks/PF-time vs Firecracker;
// per-region mapping *increases* major-fault count (the guest progresses faster)
// while lowering PF time and block requests (its majors mostly wait on reads the
// loader already issued); full FaaSnap minimizes all four.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

void RunFunction(const std::string& function) {
  const std::vector<RestoreMode> steps = {
      RestoreMode::kFirecracker, RestoreMode::kFaasnapConcurrentOnly,
      RestoreMode::kFaasnapPerRegion, RestoreMode::kFaasnap};

  TextTable table({"step", "invocation (ms)", "major faults", "waits on loader",
                   "PF time (ms)", "block requests", "loader fetch (ms)"});
  for (const ExperimentCell& cell : RunCells(CellConfig({function}, steps, "B", 1))) {
    const InvocationReport& r = cell.sample;
    table.AddRow({cell.system,
                  FormatCell("%.0f", r.invocation_time.millis()),
                  FormatCell("%lld", static_cast<long long>(r.faults.major_faults())),
                  FormatCell("%lld",
                             static_cast<long long>(r.faults.count(FaultClass::kInFlightWait))),
                  FormatCell("%.1f", r.faults.total_fault_time.millis()),
                  FormatCell("%llu",
                             static_cast<unsigned long long>(r.faults.fault_disk_requests)),
                  FormatCell("%.1f", r.fetch_time.millis())});
  }
  std::printf("## %s\n%s\n", function.c_str(), table.ToString().c_str());
}

void Run() {
  PrintBanner("Figure 9", "optimization steps and their effects");
  RunFunction("image");    // the paper's Figure 9 subject
  RunFunction("ffmpeg");   // larger loading set: the loader races the guest
  std::printf("Paper shape: concurrent paging reduces majors/PF-time/blocks vs Firecracker;\n"
              "per-region mapping trades more (cheaper) majors for fewer block requests;\n"
              "full FaaSnap has the fewest of everything and the shortest invocation.\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main() {
  faasnap::bench::Run();
  return 0;
}
