// Table 3: performance analysis of ffmpeg and image under REAP and FaaSnap:
// total time, working-set fetch time and size, guest page-fault size, and page
// fault waiting time (fault handling + blocked-vCPU time).
//
// Paper shape: for ffmpeg FaaSnap wins via a shorter (concurrent, non-blocking)
// fetch; for image FaaSnap fetches MORE than REAP (host page recording over a
// sparse access pattern) yet wins big because REAP's userspace fault handling
// inflates the page-fault waiting time.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

void Run() {
  PrintBanner("Table 3", "performance analysis (record A, test B)");

  TextTable table({"system, function", "total (ms)", "fetch time (ms)", "fetch size (MB)",
                   "guest pagefault size (MB)", "PF waiting time (ms)"});
  for (const ExperimentCell& cell : RunCells(CellConfig(
           {"ffmpeg", "image"}, {RestoreMode::kReap, RestoreMode::kFaasnap}, "B", 1))) {
    const InvocationReport& r = cell.sample;
    table.AddRow({FormatCell("%s, %s", cell.system.c_str(), cell.function.c_str()),
                  FormatCell("%.0f", r.total_time().millis()),
                  FormatCell("%.0f", r.fetch_time.millis()),
                  FormatCell("%.0f", static_cast<double>(r.fetch_bytes.value()) / 1e6),
                  FormatCell("%.1f", static_cast<double>(r.guest_pagefault_bytes.value()) / 1e6),
                  FormatCell("%.0f", r.faults.total_wait_time.millis())});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Paper anchors: REAP/ffmpeg 1408 total, 257 fetch, 201M fetched; FaaSnap/\n"
              "ffmpeg 1070 total, 107 fetch, 146M. REAP/image 480 total, 22M fetched but\n"
              "342 ms PF waiting; FaaSnap/image 136 total, 88M fetched, 109 ms waiting\n"
              "(3.5x faster).\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main() {
  faasnap::bench::Run();
  return 0;
}
