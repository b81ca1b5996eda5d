// The sharded cluster's determinism contract: results are bit-identical
// regardless of worker-thread count. Worker threads only change which shard's
// wall clock advances first inside a parallel region; every shard's event
// order, and every routing decision (barrier-published views only), is a pure
// function of the seed.

#include <gtest/gtest.h>

#include <string>

#include "src/cluster/cluster.h"
#include "src/cluster/cluster_json.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

PlatformConfig TestPlatform() {
  PlatformConfig config;
  BlockDeviceProfile disk = NvmeSsdProfile();
  disk.jitter = 0.0;
  config.disk = disk;
  return config;
}

ClusterConfig BaseConfig(int worker_threads) {
  ClusterConfig config;
  config.hosts = 4;
  config.worker_threads = worker_threads;
  config.sync_quantum = Duration::Millis(5);
  config.platform = TestPlatform();
  config.host.warm_pool_budget_bytes = MiB(256);
  config.host.admission.max_concurrency = 4;
  config.host.admission.queue_capacity = 32;
  config.host.admission.queue_deadline = Duration::Seconds(5);
  return config;
}

// Full pipeline → deterministic summary JSON, byte-comparable.
std::string RunCluster(int worker_threads, ArrivalProcess process) {
  ClusterSimulator cluster(BaseConfig(worker_threads));
  size_t functions = 0;
  for (const char* name : {"json", "pyaes", "image", "compression"}) {
    cluster.AddFunction(*FindFunction(name));
    ++functions;
  }
  ArrivalMixConfig mix;
  mix.process = process;
  mix.mean_gap = Duration::Millis(2);
  mix.burst_mean_on = Duration::Millis(50);
  mix.burst_mean_off = Duration::Millis(200);
  mix.diurnal_period = Duration::Seconds(2);
  ClusterStats stats = cluster.Run(SampleArrivalMix(functions, 300, mix, 42));
  EXPECT_EQ(stats.arrivals, 300);
  EXPECT_GT(stats.invocations, 0);
  JsonWriter w;
  stats.AppendJson(&w);
  return w.TakeString();
}

TEST(ClusterDeterminism, ByteIdenticalAcrossWorkerThreadCounts) {
  const std::string serial = RunCluster(1, ArrivalProcess::kPoisson);
  EXPECT_EQ(serial, RunCluster(4, ArrivalProcess::kPoisson));
  EXPECT_EQ(serial, RunCluster(8, ArrivalProcess::kPoisson));
}

TEST(ClusterDeterminism, ByteIdenticalUnderBurstyArrivals) {
  // Bursts pile arrivals into single epochs — the regime where a racy router
  // or a leaky barrier would first diverge.
  const std::string serial = RunCluster(1, ArrivalProcess::kBursty);
  EXPECT_EQ(serial, RunCluster(4, ArrivalProcess::kBursty));
}

TEST(ClusterDeterminism, RepeatedRunsAreIdentical) {
  EXPECT_EQ(RunCluster(2, ArrivalProcess::kDiurnal), RunCluster(2, ArrivalProcess::kDiurnal));
}

Result<ClusterExperiment> ParseCluster(const std::string& text) {
  ASSIGN_OR_RETURN(JsonValue root, ParseJson(text));
  return ParseClusterExperiment(root);
}

TEST(ClusterConfig, ParsesHostAdmissionLimits) {
  Result<ClusterExperiment> parsed = ParseCluster(R"({
    "host": {"max_concurrency": 3, "queue_capacity": 5, "queue_deadline_us": 700,
             "memory_budget_mib": 64, "fairness_share": 0.5},
    "workload": {"functions": ["json"], "count": 7}
  })");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const AdmissionConfig& admission = parsed->cluster.host.admission;
  EXPECT_EQ(admission.max_concurrency, 3);
  EXPECT_EQ(admission.queue_capacity, 5);
  EXPECT_EQ(admission.queue_deadline, Duration::Micros(700));
  EXPECT_EQ(admission.memory_budget_bytes, MiB(64));
  EXPECT_EQ(admission.fairness_share, 0.5);
  EXPECT_EQ(parsed->arrival_count, 7u);
}

TEST(ClusterConfig, RejectsInvalidHostAdmissionAndArrivalCount) {
  // Each of these used to parse and then abort (a zero-slot controller) or
  // wrap (a negative count cast to size_t).
  const std::string workload = R"("workload": {"functions": ["json"]})";
  for (const char* host : {R"({"max_concurrency": 0})", R"({"queue_capacity": -1})",
                           R"({"fairness_share": 1.5})"}) {
    const Result<ClusterExperiment> parsed =
        ParseCluster(std::string(R"({"host": )") + host + ", " + workload + "}");
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << host;
  }
  for (const char* count : {"0", "-1"}) {
    const Result<ClusterExperiment> parsed = ParseCluster(
        std::string(R"({"workload": {"functions": ["json"], "count": )") + count + "}}");
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << count;
  }
}

TEST(ClusterDeterminism, ShippedConfigLoadsAndRunsDeterministically) {
  // The shipped cluster config must parse, and a run driven by it must be
  // reproducible thread-count-independently end to end.
  Result<ClusterExperiment> loaded = NotFoundError("unattempted");
  for (const char* prefix : {"", "../", "../../", "../../../"}) {
    loaded = LoadClusterExperiment(std::string(prefix) + "configs/test-cluster.json");
    if (loaded.ok()) {
      break;
    }
  }
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_GT(loaded->functions.size(), 0u);

  const auto run = [&](int worker_threads) {
    ClusterExperiment experiment = *loaded;
    experiment.cluster.platform = TestPlatform();  // jitter-free disk for the pin
    experiment.cluster.worker_threads = worker_threads;
    ClusterSimulator cluster(experiment.cluster);
    for (const FunctionSpec& spec : experiment.functions) {
      cluster.AddFunction(spec);
    }
    ClusterStats stats = cluster.Run(
        SampleArrivalMix(experiment.functions.size(), static_cast<int>(experiment.arrival_count),
                         experiment.mix, experiment.workload_seed));
    JsonWriter w;
    stats.AppendJson(&w);
    return w.TakeString();
  };
  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace faasnap
