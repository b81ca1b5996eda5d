// Ablation: region-merge distance threshold (section 4.6; the paper empirically
// picks 32 pages). Merging trades extra prefetched data for fewer loading-set
// regions — and hence fewer mmap(MAP_FIXED) calls at restore.
//
// Expected shape: region count (and setup mmap calls) drops steeply up to ~32,
// while the loading set grows slowly; total time has a shallow minimum near 32.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

void Run(int reps) {
  PrintBanner("Ablation: region merge threshold",
              "loading-set regions / size / FaaSnap time vs merge distance (paper: 32)");

  const std::vector<uint64_t> thresholds = {0, 4, 16, 32, 128, 512};
  for (const std::string& function : {std::string("hello-world"), std::string("image")}) {
    TextTable table({"merge distance", "regions", "loading set (MB)", "mmap calls",
                     "faasnap total (ms)"});
    for (uint64_t threshold : thresholds) {
      RunningStats stats;
      uint64_t regions = 0;
      uint64_t mmap_calls = 0;
      double ls_mb = 0;
      for (int rep = 0; rep < reps; ++rep) {
        PlatformConfig config;
        config.loading_set.merge_gap_pages = PageCount::FromPages(threshold);
        config.seed = 1 + static_cast<uint64_t>(rep) * 7919;
        Platform platform(config);
        TraceGenerator generator(*FindFunction(function), config.layout);
        const FunctionSnapshot snapshot =
            platform.Record(generator, MakeInputA(generator.spec()));
        regions = snapshot.loading_set.regions.size();
        ls_mb = static_cast<double>(PagesToBytes(snapshot.loading_set.total_pages).value()) /
                (1024.0 * 1024.0);
        InvocationReport r = platform.Invoke(snapshot, RestoreMode::kFaasnap, generator,
                                             MakeInputB(generator.spec()));
        mmap_calls = r.mmap_calls;
        stats.Record(r.total_time().millis());
      }
      table.AddRow({FormatCell("%llu", static_cast<unsigned long long>(threshold)),
                    FormatCell("%llu", static_cast<unsigned long long>(regions)),
                    FormatCell("%.1f", ls_mb),
                    FormatCell("%llu", static_cast<unsigned long long>(mmap_calls)),
                    FormatCell("%.1f +- %.1f", stats.mean(), stats.stddev())});
    }
    std::printf("## %s\n%s\n", function.c_str(), table.ToString().c_str());
  }
  std::printf("Paper anchors: for hello-world, merging cuts >1000 regions to under ~100\n"
              "while adding only a few percent of data (section 4.6).\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
  faasnap::bench::Run(reps);
  return 0;
}
