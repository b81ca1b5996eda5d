// Extension: fault-path lever ablation (batched uffd installs, huge-page
// regions, in-flight fault coalescing).
//
// For each paper workload (ffmpeg, image) and each system the levers touch
// (REAP and FaaSnap), the same record-A / test-B experiment runs under five
// lever settings: every lever off (the exactness baseline), each lever alone,
// and all three together. Rows report total time, page-fault waiting time and
// per-lever attribution counters, so the ablation shows which lever moves
// which workload: batching shortens REAP's install burst and fault round
// trips, huge regions collapse dense loading-set areas into one fault, and
// coalescing retires neighbors of an in-flight loader read for free.
//
// Stdout carries exactly one JSON document (the banner goes to stderr) so CI
// can validate the output shape; curated numbers live in BENCH_faultpath.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

struct LeverSetting {
  const char* name;
  FaultPathConfig fp;
};

std::vector<LeverSetting> Settings() {
  return {
      {"off", {}},
      {"batch", {.batched_uffd_install = true}},
      {"huge", {.huge_pages = true}},
      {"coalesce", {.fault_coalescing = true}},
      {"all", {.batched_uffd_install = true, .huge_pages = true, .fault_coalescing = true}},
  };
}

std::string Row(const std::string& function, const std::string& system,
                const LeverSetting& setting, const InvocationReport& r) {
  char buffer[768];
  std::snprintf(
      buffer, sizeof(buffer),
      "    {\"function\": \"%s\", \"mode\": \"%s\", \"lever\": \"%s\",\n"
      "     \"total_ms\": %.2f, \"fetch_ms\": %.2f, \"pf_wait_ms\": %.2f, "
      "\"pf_handling_ms\": %.2f,\n"
      "     \"faults\": %llu, \"batch_installs\": %llu, \"batch_installed_pages\": %llu,\n"
      "     \"huge_installs\": %llu, \"huge_installed_pages\": %llu, \"huge_splits\": %llu, "
      "\"coalesced_pages\": %llu}",
      function.c_str(), system.c_str(), setting.name, r.total_time().millis(),
      r.fetch_time.millis(), r.faults.total_wait_time.millis(),
      r.faults.total_fault_time.millis(),
      static_cast<unsigned long long>(r.faults.total_faults()),
      static_cast<unsigned long long>(r.faults.batch_installs),
      static_cast<unsigned long long>(r.faults.batch_installed_pages.value()),
      static_cast<unsigned long long>(r.faults.huge_installs),
      static_cast<unsigned long long>(r.faults.huge_installed_pages.value()),
      static_cast<unsigned long long>(r.faults.huge_splits),
      static_cast<unsigned long long>(r.faults.coalesced_pages.value()));
  return buffer;
}

// Coalescing only matters under contention: a single restoring VM faults
// either behind the loader (minor) or ahead of it (major, waiting on its own
// read), never into someone else's in-flight IO. A same-snapshot burst
// through the shared page cache is where neighbors' reads are in flight, so
// the coalesce lever gets its own section: `parallelism` VMs restored from
// one snapshot, coalescing off vs on.
std::string BurstRow(const std::string& function, const char* lever, int parallelism,
                     bool coalesce) {
  PlatformConfig config;
  config.fault_path.fault_coalescing = coalesce;
  Platform platform(config);
  Result<FunctionSpec> spec = FindFunction(function);
  FAASNAP_CHECK_OK(spec.status());
  TraceGenerator generator(*spec, config.layout);
  FunctionSnapshot snap = platform.Record(generator, MakeInputA(*spec));
  platform.DropCaches();
  double total_ms = 0;
  double wait_ms = 0;
  unsigned long long inflight = 0;
  unsigned long long coalesced = 0;
  int completed = 0;
  for (int i = 0; i < parallelism; ++i) {
    WorkloadInput input = MakeInputA(*spec);
    if (!spec->fixed_input) {
      input.content_seed = 0xB0057 + static_cast<uint64_t>(i);
    }
    platform.InvokeAsync(snap, RestoreMode::kFirecracker, generator.Generate(input),
                         [&](InvocationReport r) {
                           total_ms += r.total_time().millis();
                           wait_ms += r.faults.total_wait_time.millis();
                           inflight +=
                               static_cast<unsigned long long>(r.faults.count(FaultClass::kInFlightWait));
                           coalesced += r.faults.coalesced_pages.value();
                           ++completed;
                         });
  }
  platform.sim()->Run();
  FAASNAP_CHECK(completed == parallelism);
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "    {\"function\": \"%s\", \"mode\": \"firecracker\", \"lever\": \"%s\", "
                "\"parallelism\": %d,\n"
                "     \"mean_total_ms\": %.2f, \"mean_pf_wait_ms\": %.2f, "
                "\"inflight_waits\": %llu, \"coalesced_pages\": %llu}",
                function.c_str(), lever, parallelism, total_ms / completed,
                wait_ms / completed, inflight, coalesced);
  return buffer;
}

void Run() {
  std::fprintf(stderr,
               "ext_faultpath: lever ablation (off | batch | huge | coalesce | all) for "
               "ffmpeg and image under reap and faasnap (record A / test B), plus a "
               "64-way same-snapshot burst for the coalesce lever\n");
  // One experiment per lever setting; its cells are (function, system) pairs.
  const std::vector<LeverSetting> settings = Settings();
  std::vector<std::vector<ExperimentCell>> by_setting;
  for (const LeverSetting& setting : settings) {
    ExperimentConfig config =
        CellConfig({"ffmpeg", "image"}, {RestoreMode::kReap, RestoreMode::kFaasnap}, "B", 1);
    config.platform.fault_path = setting.fp;
    by_setting.push_back(RunCells(config));
  }
  std::vector<std::string> rows;
  for (size_t cell = 0; cell < by_setting[0].size(); ++cell) {
    for (size_t s = 0; s < settings.size(); ++s) {
      const ExperimentCell& c = by_setting[s][cell];
      rows.push_back(Row(c.function, c.system, settings[s], c.sample));
    }
  }
  std::vector<std::string> burst;
  for (const std::string& function : {std::string("hello-world"), std::string("image")}) {
    burst.push_back(BurstRow(function, "off", 64, false));
    burst.push_back(BurstRow(function, "coalesce", 64, true));
  }
  std::printf("{\n  \"bench\": \"ext_faultpath\",\n");
  std::printf("  \"levers\": [\"off\", \"batch\", \"huge\", \"coalesce\", \"all\"],\n");
  std::printf("  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%s%s\n", rows[i].c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n  \"burst\": [\n");
  for (size_t i = 0; i < burst.size(); ++i) {
    std::printf("%s%s\n", burst[i].c_str(), i + 1 < burst.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main() {
  faasnap::bench::Run();
  return 0;
}
