// Ablation: host page recording (mincore) vs faulting-page recording (section
// 4.4). We rebuild FaaSnap's loading set from REAP's fault-order working set
// (what userfaultfd tracking would have recorded) and compare against the
// mincore-based recording under input drift.
//
// Expected shape: with the same input both perform alike; with a different/larger
// input, mincore recording wins because readahead "predicted" pages that the new
// input touches but the old one never faulted on.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/loading_set_builder.h"

namespace faasnap {
namespace bench {
namespace {

// Chops REAP's fault-ordered page list into pseudo-groups of `group_size` so the
// loading set builder can order the file, mimicking a recorder that tracked only
// faulting pages.
WorkingSetGroups GroupsFromFaultOrder(const ReapWorkingSetFile& ws, uint64_t group_size) {
  WorkingSetGroups groups;
  PageRangeSet current;
  uint64_t in_group = 0;
  for (PageIndex page : ws.guest_pages) {
    current.AddPage(page);
    if (++in_group >= group_size) {
      groups.groups.push_back(std::move(current));
      current = PageRangeSet();
      in_group = 0;
    }
  }
  if (!current.empty()) {
    groups.groups.push_back(std::move(current));
  }
  return groups;
}

void Run(int reps) {
  PrintBanner("Ablation: host page recording",
              "FaaSnap with mincore-recorded vs faulting-page-recorded working sets (ms)");

  for (const std::string& function :
       {std::string("image"), std::string("json"), std::string("pagerank")}) {
    TextTable table({"test input", "mincore recording", "faulting-page recording", "delta"});
    struct Scenario {
      const char* label;
      double ratio;
      uint64_t seed;
    };
    for (const Scenario& scenario :
         {Scenario{"same input A", 1.0, 0xA}, Scenario{"different content, 1x", 1.0, 0xD1FF},
          Scenario{"different content, 2x", 2.0, 0xD1FF}}) {
      RunningStats mincore_ms;
      RunningStats faultrec_ms;
      for (int rep = 0; rep < reps; ++rep) {
        PlatformConfig config;
        // Isolate the recording method: with the default 32-page merge, region
        // merging bridges most of the gap between the two recorders (an
        // interaction worth knowing about); merge 0 shows the raw difference.
        config.loading_set.merge_gap_pages = PageCount::Zero();
        config.seed = 1 + static_cast<uint64_t>(rep) * 7919;
        Platform platform(config);
        TraceGenerator generator(*FindFunction(function), config.layout);
        const FunctionSnapshot snapshot =
            platform.Record(generator, MakeInputA(generator.spec()));

        WorkloadInput test = MakeScaledInput(generator.spec(), scenario.ratio, scenario.seed);

        // Baseline: FaaSnap with its mincore-recorded working set.
        InvocationReport with_mincore =
            platform.Invoke(snapshot, RestoreMode::kFaasnap, generator, test);
        mincore_ms.Record(with_mincore.total_time().millis());

        // Variant: substitute a faulting-page-recorded working set.
        FunctionSnapshot degraded = snapshot;
        degraded.ws_groups =
            GroupsFromFaultOrder(degraded.reap_ws, config.ws_group_size);
        degraded.loading_set =
            BuildLoadingSet(degraded.ws_groups, degraded.memory_sanitized, config.loading_set);
        degraded.loading_set.id = platform.store()->Register(
            function + ".lset-faultrec", degraded.loading_set.total_pages);
        platform.DropCaches();
        InvocationReport with_faults =
            platform.Invoke(degraded, RestoreMode::kFaasnap, generator, test);
        faultrec_ms.Record(with_faults.total_time().millis());
      }
      table.AddRow({scenario.label, FormatCell("%.1f", mincore_ms.mean()),
                    FormatCell("%.1f", faultrec_ms.mean()),
                    FormatCell("%+.1f%%", 100.0 * (faultrec_ms.mean() - mincore_ms.mean()) /
                                              mincore_ms.mean())});
    }
    std::printf("## %s\n%s\n", function.c_str(), table.ToString().c_str());
  }
  std::printf("Expected: deltas grow with input drift — readahead-recorded pages cover\n"
              "future accesses that faulting-page tracking misses (section 4.4).\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
  faasnap::bench::Run(reps);
  return 0;
}
