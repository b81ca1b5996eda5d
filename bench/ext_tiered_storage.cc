// Extension (paper section 7.2, future work): tiered snapshot storage.
//
// "In the future we plan to explore storing relatively small loading set files on
// local SSD and larger memory files on remote storage to reduce storage costs
// while satisfying the performance requirements of reading loading sets."
//
// This bench compares three placements under FaaSnap (and Firecracker/REAP where
// applicable): everything on local NVMe, everything on remote EBS, and the hybrid
// — loading set local, memory file (and REAP working set) remote.
//
// Expected shape: the hybrid tracks all-local closely for FaaSnap (the critical
// path reads the loading set), while moving the bulk of the bytes (the 2 GiB
// memory file) off the expensive local tier. Firecracker cannot benefit: all its
// reads hit the memory file.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

PlatformConfig MakeConfig(const char* placement) {
  PlatformConfig config;
  config.remote_disk = EbsIo2Profile();
  if (std::string(placement) == "all-local") {
    // remote device present but unused
  } else if (std::string(placement) == "all-remote") {
    config.placement.memory_files = StorageTier::kRemote;
    config.placement.loading_set = StorageTier::kRemote;
    config.placement.reap_ws = StorageTier::kRemote;
  } else {  // hybrid
    config.placement.memory_files = StorageTier::kRemote;
    config.placement.reap_ws = StorageTier::kRemote;
    config.placement.loading_set = StorageTier::kLocal;
  }
  return config;
}

void Run(int reps) {
  PrintBanner("Extension: tiered snapshot storage (section 7.2)",
              "total time (ms): all-local vs hybrid (loading set local) vs all-remote");

  const std::vector<RestoreMode> systems = {RestoreMode::kFaasnap, RestoreMode::kReap,
                                            RestoreMode::kFirecracker};
  // Cells per placement, function by function; test input B is input A for
  // the fixed-input hello-world.
  std::vector<std::vector<ExperimentCell>> by_placement;
  for (const char* placement : {"all-local", "hybrid", "all-remote"}) {
    ExperimentConfig config = CellConfig(
        {"hello-world", "json", "image", "ffmpeg", "recognition"}, systems, "B", reps);
    config.platform = MakeConfig(placement);
    by_placement.push_back(RunCells(config));
  }
  for (size_t s = 0; s < systems.size(); ++s) {
    TextTable table({"function", "all-local", "hybrid", "all-remote", "hybrid penalty"});
    for (size_t i = s; i < by_placement[0].size(); i += systems.size()) {
      double cells[3];
      for (int p = 0; p < 3; ++p) {
        cells[p] = by_placement[p][i].total_ms.mean();
      }
      table.AddRow({by_placement[0][i].function, FormatCell("%.1f", cells[0]),
                    FormatCell("%.1f", cells[1]), FormatCell("%.1f", cells[2]),
                    FormatCell("%+.1f%%", 100.0 * (cells[1] - cells[0]) / cells[0])});
    }
    std::printf("## %s\n%s\n", RestoreModeName(systems[s]).data(), table.ToString().c_str());
  }
  std::printf("Expected: FaaSnap's hybrid stays within a few percent of all-local (cold-set\n"
              "reads are rare), enabling remote storage for the 2 GiB memory files at local\n"
              "SSD cost for only the small loading sets.\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
  faasnap::bench::Run(reps);
  return 0;
}
