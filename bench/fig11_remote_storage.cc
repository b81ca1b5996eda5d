// Figure 11: performance with snapshots and related files on remote block
// storage (EBS io2: 64K IOPS, 1 GB/s). All twelve functions under Firecracker,
// REAP, and FaaSnap.
//
// Paper shape: Firecracker suffers most from the higher per-read latency; REAP
// and FaaSnap both improve on it substantially; FaaSnap beats REAP for most
// functions except the very stable-working-set ones (hello-world, read-list,
// recognition) where REAP's single blocking fetch is most efficient. On average
// FaaSnap-on-EBS is ~2x Firecracker and ~1.2x REAP, and ~28% slower than
// FaaSnap-on-NVMe.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

void Run(int reps) {
  PrintBanner("Figure 11", "execution time with snapshots on remote storage (ms)");

  // Test input B is input A for the fixed-input synthetic functions.
  ExperimentConfig ebs = CellConfig(
      AllFunctionNames(),
      {RestoreMode::kFirecracker, RestoreMode::kReap, RestoreMode::kFaasnap}, "B", reps);
  ebs.platform.disk = EbsIo2Profile();
  const std::vector<ExperimentCell> cells = RunCells(ebs);
  const std::vector<ExperimentCell> local =
      RunCells(CellConfig(AllFunctionNames(), {RestoreMode::kFaasnap}, "B", reps));

  TextTable table({"function", "firecracker", "reap", "faasnap", "faasnap (local nvme)"});
  double fc_sum = 0;
  double reap_sum = 0;
  double local_sum = 0;
  int count = 0;
  for (size_t i = 0; i < local.size(); ++i) {
    const RunningStats& fc = cells[3 * i].total_ms;
    const RunningStats& reap = cells[3 * i + 1].total_ms;
    const RunningStats& faasnap = cells[3 * i + 2].total_ms;
    fc_sum += fc.mean() / faasnap.mean();
    reap_sum += reap.mean() / faasnap.mean();
    local_sum += faasnap.mean() / local[i].total_ms.mean();
    ++count;
    table.AddRow({local[i].function, StatCell(fc), StatCell(reap), StatCell(faasnap),
                  StatCell(local[i].total_ms)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("averages on EBS: firecracker/faasnap = %.2fx, reap/faasnap = %.2fx,\n"
              "faasnap(EBS)/faasnap(NVMe) = %.2fx\n",
              fc_sum / count, reap_sum / count, local_sum / count);
  std::printf("Paper anchors: 2.06x over Firecracker, 1.20x over REAP, 28%% slower than\n"
              "local NVMe; REAP leads FaaSnap only on hello-world/read-list/recognition.\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
  faasnap::bench::Run(reps);
  return 0;
}
