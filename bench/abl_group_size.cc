// Ablation: working set group size N (section 4.3; the paper empirically picks
// N = 1024). Smaller groups track access order tightly but fragment the loading
// set file; larger groups degrade into plain address order.
//
// The ordering effect only matters while the loader is still racing the guest,
// so this ablation uses the slower EBS device and the large-working-set
// functions; on a local NVMe the loader finishes during VMM restore and the
// group size is irrelevant (itself a useful observation).
//
// Expected shape: total time is flat near the minimum around N = 512-4096 and
// worse at the extremes — matching "N = 1024 works well across the benchmarks".

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

void Run(int reps) {
  PrintBanner("Ablation: working set group size",
              "FaaSnap total time (ms) vs group size N (paper picks 1024)");

  const std::vector<uint64_t> sizes = {64, 256, 1024, 4096, 16384};
  for (const std::string& function :
       {std::string("recognition"), std::string("read-list"), std::string("ffmpeg")}) {
    TextTable table({"group size N", "faasnap total (ms)", "loading set regions"});
    for (uint64_t n : sizes) {
      RunningStats stats;
      uint64_t regions = 0;
      for (int rep = 0; rep < reps; ++rep) {
        PlatformConfig config;
        config.disk = EbsIo2Profile();  // slow enough that loader order matters
        config.ws_group_size = n;
        config.seed = 1 + static_cast<uint64_t>(rep) * 7919;
        Platform platform(config);
        TraceGenerator generator(*FindFunction(function), config.layout);
        const FunctionSnapshot snapshot =
            platform.Record(generator, MakeInputA(generator.spec()));
        regions = snapshot.loading_set.regions.size();
        InvocationReport r = platform.Invoke(snapshot, RestoreMode::kFaasnap, generator,
                                             MakeInputB(generator.spec()));
        stats.Record(r.total_time().millis());
      }
      table.AddRow({FormatCell("%llu", static_cast<unsigned long long>(n)),
                    FormatCell("%.1f +- %.1f", stats.mean(), stats.stddev()),
                    FormatCell("%llu", static_cast<unsigned long long>(regions))});
    }
    std::printf("## %s\n%s\n", function.c_str(), table.ToString().c_str());
  }
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
  faasnap::bench::Run(reps);
  return 0;
}
