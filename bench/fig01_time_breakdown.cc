// Figure 1: time breakdown of function invocations (setup vs invocation) for
// hello-world, image, image-diff, read-list, and mmap under Warm, Firecracker,
// Cached, and REAP. Guest: 2 GiB, 1 vCPU (section 3.1).
//
// Paper shape: Warm wins everywhere (hello-world ~4 ms); Firecracker is the
// slowest snapshot system; Cached tracks Warm for image but pays minor faults on
// read-list/mmap; REAP matches Cached on same-input functions but degrades on
// image-diff and pays a long setup for large working sets.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

struct Row {
  std::string label;
  std::string function;
  uint64_t test_seed;  // differs from the record seed for image-diff
};

void Run(int reps) {
  PrintBanner("Figure 1", "time breakdown of function invocations (ms)");

  PlatformConfig config;
  config.guest.vcpus = 1;  // section 3.1 configuration

  const std::vector<Row> rows = {
      {"hello-world", "hello-world", 0xA},
      {"image", "image", 0xA},
      {"image-diff", "image", 0xD1FF},
      {"read-list", "read-list", 0xA},
      {"mmap", "mmap", 0xA},
  };
  const std::vector<RestoreMode> systems = {RestoreMode::kWarm, RestoreMode::kFirecracker,
                                            RestoreMode::kCached, RestoreMode::kReap};

  TextTable table({"function", "system", "setup (ms)", "invocation (ms)", "total (ms)"});
  for (const Row& row : rows) {
    for (RestoreMode mode : systems) {
      RunningStats setup;
      RunningStats invoke;
      for (int rep = 0; rep < reps; ++rep) {
        PlatformConfig c = config;
        c.seed = 1 + static_cast<uint64_t>(rep) * 7919;
        Platform platform(c);
        TraceGenerator generator(*FindFunction(row.function), c.layout);
        const FunctionSnapshot snapshot =
            platform.Record(generator, MakeInputA(generator.spec()));
        WorkloadInput test = MakeInputA(generator.spec());
        test.content_seed = row.test_seed;
        InvocationReport report = platform.Invoke(snapshot, mode, generator, test);
        setup.Record(report.setup_time.millis());
        invoke.Record(report.invocation_time.millis());
      }
      table.AddRow({row.label, std::string(RestoreModeName(mode)),
                    FormatCell("%.1f", setup.mean()), FormatCell("%.1f", invoke.mean()),
                    FormatCell("%.1f", setup.mean() + invoke.mean())});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Paper anchors: warm hello-world ~4 ms invocation; Firecracker hello-world\n"
              ">200 ms; REAP setup dominates read-list/mmap; REAP degrades on image-diff.\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 5;
  faasnap::bench::Run(reps);
  return 0;
}
