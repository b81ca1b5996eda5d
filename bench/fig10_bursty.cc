// Figure 10: performance under bursty workloads — 1 to 64 simultaneous
// invocations of hello-world and json, restored either from the same snapshot or
// from different snapshots, under Firecracker, REAP, and FaaSnap.
//
// Paper shape: same snapshot — REAP and FaaSnap beat Firecracker below 64-way
// parallelism; FaaSnap beats REAP everywhere because REAP's fetch bypasses the
// page cache and cannot share reads; at 64 the CPU becomes the bottleneck for
// everyone. Different snapshots — Firecracker degrades quickly with disk load;
// REAP is flat (it never shared anyway); FaaSnap stays ahead.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

struct BurstResult {
  double mean_ms;
  double std_ms;
};

BurstResult RunBurst(const std::string& function, RestoreMode mode, int parallelism,
                     bool same_snapshot, uint64_t seed) {
  PlatformConfig config;
  config.seed = seed;
  Platform platform(config);
  Result<FunctionSpec> spec = FindFunction(function);
  FAASNAP_CHECK_OK(spec.status());
  TraceGenerator generator(*spec, config.layout);

  std::vector<FunctionSnapshot> snapshots;
  const int snapshot_count = same_snapshot ? 1 : parallelism;
  for (int i = 0; i < snapshot_count; ++i) {
    snapshots.push_back(platform.Record(generator, MakeInputA(*spec)));
  }
  platform.DropCaches();

  RunningStats totals;
  int completed = 0;
  for (int i = 0; i < parallelism; ++i) {
    WorkloadInput input = MakeInputA(*spec);
    if (!spec->fixed_input) {
      input.content_seed = 0xB0057 + static_cast<uint64_t>(i);  // per-request contents
    }
    const FunctionSnapshot& snap = snapshots[same_snapshot ? 0 : i];
    platform.InvokeAsync(snap, mode, generator.Generate(input), [&](InvocationReport r) {
      totals.Record(r.total_time().millis());
      ++completed;
    });
  }
  platform.sim()->Run();
  FAASNAP_CHECK(completed == parallelism);
  return BurstResult{totals.mean(), totals.stddev()};
}

void Run(int reps) {
  PrintBanner("Figure 10", "performance with bursty workloads (mean per-invocation ms)");

  const std::vector<int> parallelism = {1, 4, 16, 64};
  const std::vector<RestoreMode> systems = {RestoreMode::kFirecracker, RestoreMode::kReap,
                                            RestoreMode::kFaasnap};
  for (const std::string& function : {std::string("hello-world"), std::string("json")}) {
    for (bool same : {true, false}) {
      TextTable table({"parallelism", "firecracker", "reap", "faasnap"});
      for (int p : parallelism) {
        std::vector<std::string> row = {FormatCell("%d", p)};
        for (RestoreMode mode : systems) {
          RunningStats stats;
          for (int rep = 0; rep < reps; ++rep) {
            BurstResult r = RunBurst(function, mode, p, same,
                                     1 + static_cast<uint64_t>(rep) * 7919);
            stats.Record(r.mean_ms);
          }
          row.push_back(FormatCell("%.1f +- %.1f", stats.mean(), stats.stddev()));
        }
        table.AddRow(std::move(row));
      }
      std::printf("## %s, %s\n%s\n", function.c_str(),
                  same ? "same snapshot" : "different snapshots", table.ToString().c_str());
    }
  }
  std::printf("Paper shape: FaaSnap < REAP everywhere (REAP bypasses the page cache).\n"
              "Here FaaSnap < REAP in every cell but hello-world with different snapshots\n"
              "at 16- and 64-way, where REAP's one batched read per VM wins (deviation D7).\n"
              "Firecracker catches up at same-snapshot 64-way (guests warm the cache for\n"
              "each other) but collapses with different snapshots; everyone slows at 64\n"
              "as 128 vCPUs oversubscribe 96 cores.\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
  faasnap::bench::Run(reps);
  return 0;
}
