// Extension (paper sections 2.1 / 7.1): a multi-function host under memory
// pressure, with snapshots serving evictions.
//
// Eight functions share one host; arrivals follow an Azure-like Zipf popularity
// skew ("less than half of the functions are invoked every hour, and less than
// 10% are invoked every minute"). We sweep the warm-pool budget and the miss
// path. With a generous budget everything stays warm; as the budget shrinks,
// evictions rise and the miss path decides end-to-end latency — snapshots
// (FaaSnap in particular) keep small budgets viable where cold boots do not.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/runtime/host_scheduler.h"

namespace faasnap {
namespace bench {
namespace {

void Run(int arrivals) {
  PrintBanner("Extension: multi-function host scheduling (sections 2.1, 7.1)",
              "8 functions, Zipf(1.2) arrivals, warm-pool budget sweep");

  const std::vector<std::string> functions = {"json",  "image",       "chameleon",
                                              "pyaes", "compression", "pagerank",
                                              "ffmpeg", "recognition"};
  struct Budget {
    const char* label;
    ByteCount bytes;
  };
  const Budget budgets[] = {
      {"2 GiB (ample)", GiB(2)},
      {"256 MiB", MiB(256)},
      {"128 MiB (tight)", MiB(128)},
  };
  const RestoreMode miss_modes[] = {RestoreMode::kColdBoot, RestoreMode::kFirecracker,
                                    RestoreMode::kFaasnap};

  // One seeded arrival stream for the whole sweep: every cell serves the same
  // offered schedule, so cells differ only by budget and miss path.
  const std::vector<Arrival> mix =
      ZipfArrivals(functions.size(), arrivals, /*zipf_s=*/1.2,
                   /*mean_gap=*/Duration::Seconds(20), /*seed=*/12345);

  TextTable table({"budget", "miss path", "hit rate", "evictions", "mean latency (ms)",
                   "mean miss (ms)", "avg pool (MiB)"});
  for (const Budget& budget : budgets) {
    for (RestoreMode miss_mode : miss_modes) {
      PlatformConfig config;
      Platform platform(config);
      HostSchedulerConfig sched;
      sched.warm_pool_budget_bytes = budget.bytes;
      sched.keep_warm = Duration::Seconds(600);
      sched.miss_mode = miss_mode;
      HostScheduler scheduler(&platform, sched);
      for (const std::string& function : functions) {
        Result<FunctionSpec> spec = FindFunction(function);
        FAASNAP_CHECK_OK(spec.status());
        scheduler.AddFunction(*spec);
      }
      HostSchedulerStats stats = scheduler.Run(mix);
      table.AddRow({budget.label, std::string(RestoreModeName(miss_mode)),
                    FormatCell("%.0f%%", 100.0 * stats.warm_hit_rate()),
                    FormatCell("%lld", static_cast<long long>(stats.evictions)),
                    FormatCell("%.1f", stats.latency_ms.mean()),
                    FormatCell("%.1f", stats.miss_latency_ms.count() > 0
                                           ? stats.miss_latency_ms.mean()
                                           : 0.0),
                    FormatCell("%.0f", stats.avg_pool_bytes / (1024.0 * 1024.0))});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Expected: hit rates fall as the budget shrinks (evictions rise); under a\n"
              "tight budget the miss path dominates mean latency — FaaSnap keeps the\n"
              "128 MiB host within ~2x of the ample one, while cold boots blow it up by\n"
              "an order of magnitude.\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  const int arrivals = argc > 1 ? std::atoi(argv[1]) : 120;
  faasnap::bench::Run(arrivals);
  return 0;
}
