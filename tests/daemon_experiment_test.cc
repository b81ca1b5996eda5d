#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "src/daemon/experiment_config.h"
#include "src/daemon/experiment_runner.h"

namespace faasnap {
namespace {

Result<ExperimentConfig> Parse(const std::string& text) {
  ASSIGN_OR_RETURN(JsonValue root, ParseJson(text));
  return ParseExperimentConfig(root);
}

// Value of the counter `name` whose labels are exactly `labels` in a metrics
// snapshot file; -1 when the series is absent.
int64_t CounterIn(const std::string& path, const std::string& name,
                  const std::map<std::string, std::string>& labels = {}) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  Result<JsonValue> root = ParseJson(text.str());
  EXPECT_TRUE(root.ok()) << path;
  Result<JsonValue> metrics = root.ok() ? root->Get("metrics") : root;
  if (!metrics.ok()) {
    return -1;
  }
  for (const JsonValue& series : metrics->array()) {
    Result<JsonValue> series_labels = series.Get("labels");
    if (series.GetStringOr("name", "") != name || !series_labels.ok()) {
      continue;
    }
    std::map<std::string, std::string> got;
    for (const auto& [key, value] : series_labels->object()) {
      got[key] = value.AsString().ok() ? *value.AsString() : "";
    }
    if (got == labels) {
      return series.GetIntOr("value", -1);
    }
  }
  return -1;
}

TEST(ExperimentConfig, MinimalConfigGetsDefaults) {
  Result<ExperimentConfig> config = Parse(R"({"functions": ["json"]})");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->functions, std::vector<std::string>{"json"});
  EXPECT_EQ(config->systems.size(), 4u);  // the four paper systems
  EXPECT_EQ(config->reps, 3);
  EXPECT_EQ(config->parallelism, 1);
  ASSERT_EQ(config->test_inputs.size(), 1u);
  EXPECT_EQ(config->test_inputs[0].kind, TestInputSpec::Kind::kInputB);
  EXPECT_EQ(config->platform.disk.name, "nvme-ssd");
}

TEST(ExperimentConfig, FullConfigParses) {
  Result<ExperimentConfig> config = Parse(R"({
    "name": "custom",
    "functions": ["json", "image"],
    "systems": ["faasnap", "reap"],
    "record_input": "B",
    "test_inputs": ["A", "2x", "0.5x"],
    "reps": 5,
    "parallelism": 4,
    "device": "ebs",
    "ws_group_size": 256,
    "merge_gap_pages": 16,
    "base_seed": 9
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->name, "custom");
  EXPECT_EQ(config->systems,
            (std::vector<RestoreMode>{RestoreMode::kFaasnap, RestoreMode::kReap}));
  EXPECT_EQ(config->record_input.kind, TestInputSpec::Kind::kInputB);
  ASSERT_EQ(config->test_inputs.size(), 3u);
  EXPECT_EQ(config->test_inputs[1].kind, TestInputSpec::Kind::kRatio);
  EXPECT_DOUBLE_EQ(config->test_inputs[1].ratio, 2.0);
  EXPECT_DOUBLE_EQ(config->test_inputs[2].ratio, 0.5);
  EXPECT_EQ(config->platform.disk.name, "ebs-io2");
  EXPECT_EQ(config->platform.ws_group_size, 256u);
  EXPECT_EQ(config->platform.loading_set.merge_gap_pages.value(), 16u);
  EXPECT_EQ(config->base_seed, 9u);
}

TEST(ExperimentConfig, RejectsBadInput) {
  EXPECT_FALSE(Parse(R"({})").ok());                                   // no functions
  EXPECT_FALSE(Parse(R"({"functions": []})").ok());                    // empty
  EXPECT_FALSE(Parse(R"({"functions": ["nope"]})").ok());              // unknown fn
  EXPECT_FALSE(Parse(R"({"functions":["json"],"systems":["x"]})").ok());
  EXPECT_FALSE(Parse(R"({"functions":["json"],"test_inputs":["Q"]})").ok());
  EXPECT_FALSE(Parse(R"({"functions":["json"],"device":"floppy"})").ok());
  EXPECT_FALSE(Parse(R"({"functions":["json"],"reps":0})").ok());
  EXPECT_FALSE(Parse(R"([1,2,3])").ok());  // root not an object
  EXPECT_FALSE(Parse(R"({"functions":["json"],"admission":{"max_concurrency":0}})").ok());
  EXPECT_FALSE(Parse(R"({"functions":["json"],"admission":{"enabled":false}})").ok());
}

TEST(ExperimentConfig, RejectsNegativeForensicsBounds) {
  // A negative bound must not wrap to a huge size_t and silently lift the cap.
  for (const char* key : {"slowest_k", "max_non_ok", "buffer_capacity"}) {
    const std::string text =
        std::string(R"({"functions": ["json"], "forensics": {")") + key + R"(": -1}})";
    Result<ExperimentConfig> config = Parse(text);
    ASSERT_FALSE(config.ok()) << key;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument) << key;
  }
  EXPECT_TRUE(Parse(R"({"functions": ["json"], "forensics": {"slowest_k": 0}})").ok());
}

TEST(ExperimentConfig, RejectsZeroCoresAndGroupSize) {
  for (const char* text : {R"({"functions": ["json"], "host_cores": 0})",
                           R"({"functions": ["json"], "host_cores": -4})",
                           R"({"functions": ["json"], "ws_group_size": 0})"}) {
    Result<ExperimentConfig> config = Parse(text);
    ASSERT_FALSE(config.ok()) << text;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(ExperimentConfig, AbsentAdmissionBlockAdmitsTheWholeBurst) {
  Result<ExperimentConfig> config = Parse(R"({"functions": ["json"], "parallelism": 16})");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->admission.max_concurrency, 16);
  EXPECT_EQ(config->admission.queue_capacity, 0);
  EXPECT_EQ(config->admission.queue_deadline, Duration::Zero());
  EXPECT_TRUE(config->admission.memory_budget_bytes.is_zero());
  EXPECT_EQ(config->admission.fairness_share, 0.0);
}

TEST(ExperimentConfig, LoadsTheShippedConfigs) {
  for (const char* path :
       {"configs/test-2inputs.json", "configs/test-6inputs.json", "configs/test-burst.json",
        "configs/test-remote.json"}) {
    // The test may run from the repo root, the build dir, or build/tests.
    Result<ExperimentConfig> config = NotFoundError("unattempted");
    for (const char* prefix : {"", "../", "../../", "../../../"}) {
      config = LoadExperimentConfig(std::string(prefix) + path);
      if (config.ok()) {
        break;
      }
    }
    ASSERT_TRUE(config.ok()) << path << ": " << config.status().ToString();
    EXPECT_FALSE(config->functions.empty()) << path;
  }
}

TEST(ExperimentRunner, RunsATinyConfigEndToEnd) {
  Result<ExperimentConfig> config = Parse(R"({
    "name": "tiny",
    "functions": ["json"],
    "systems": ["firecracker", "faasnap"],
    "test_inputs": ["B"],
    "reps": 2
  })");
  ASSERT_TRUE(config.ok());
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->cells.size(), 2u);
  for (const ExperimentCell& cell : results->cells) {
    EXPECT_EQ(cell.function, "json");
    EXPECT_EQ(cell.total_ms.count(), 2);
    EXPECT_GT(cell.total_ms.mean(), 0.0);
  }
  // FaaSnap beats Firecracker in the results, as everywhere else.
  EXPECT_LT(results->cells[1].total_ms.mean(), results->cells[0].total_ms.mean());
  // Renderings include the cells.
  EXPECT_NE(results->ToTable().find("faasnap"), std::string::npos);
  const std::string json = results->ToJson();
  EXPECT_NE(json.find("\"system\":\"faasnap\""), std::string::npos);
  EXPECT_NE(json.find("\"reps\":2"), std::string::npos);
  // Outcome tallies are part of every rendering, fault-free runs included.
  EXPECT_NE(results->ToTable().find("ok/deg/fail/shed"), std::string::npos);
  EXPECT_NE(results->ToTable().find("2/0/0/0"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":2,\"degraded\":0,\"failed\":0,\"shed\":0"),
            std::string::npos);
}

TEST(ExperimentRunner, BurstConfigAggregatesPerInvocation) {
  Result<ExperimentConfig> config = Parse(R"({
    "functions": ["json"],
    "systems": ["faasnap"],
    "test_inputs": ["A"],
    "reps": 1,
    "parallelism": 4
  })");
  ASSERT_TRUE(config.ok());
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->cells.size(), 1u);
  EXPECT_EQ(results->cells[0].total_ms.count(), 4);  // one sample per burst member
}

TEST(ExperimentRunner, AdmissionBurstShedsTypedOutcomes) {
  // An 8-wide burst through a 1-slot admission controller with a 1-deep queue
  // and a microsecond deadline: one runs, one queues and expires, six find the
  // queue full. Sheds land in the cell and in both renderings.
  Result<ExperimentConfig> config = Parse(R"({
    "functions": ["json"],
    "systems": ["faasnap"],
    "test_inputs": ["A"],
    "reps": 1,
    "parallelism": 8,
    "admission": {
      "max_concurrency": 1,
      "queue_capacity": 1,
      "queue_deadline_us": 10
    }
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->admission.max_concurrency, 1);
  EXPECT_EQ(config->admission.queue_capacity, 1);
  EXPECT_EQ(config->admission.queue_deadline, Duration::Micros(10));
  EXPECT_TRUE(config->admission.memory_budget_bytes.is_zero());
  EXPECT_EQ(config->admission.fairness_share, 0.0);
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->cells.size(), 1u);
  const ExperimentCell& cell = results->cells[0];
  EXPECT_EQ(cell.shed, 7);
  EXPECT_EQ(cell.total_ms.count(), 1);  // only the admitted member reports latency
  EXPECT_NE(results->ToTable().find("ok/deg/fail/shed"), std::string::npos);
  EXPECT_NE(results->ToJson().find("\"shed\":7"), std::string::npos);
}

TEST(ExperimentRunner, FaultFreeAdmissionBurstWritesOutcomeSeries) {
  // The same burst as above, without chaos: every arrival still lands in the
  // invocations.outcome series of the metrics snapshot.
  Result<ExperimentConfig> config = Parse(R"({
    "functions": ["json"],
    "systems": ["faasnap"],
    "test_inputs": ["A"],
    "reps": 1,
    "parallelism": 8,
    "admission": {"max_concurrency": 1, "queue_capacity": 1, "queue_deadline_us": 10}
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_FALSE(config->platform.chaos.enabled);
  config->metrics_out = ::testing::TempDir() + "admission_burst.metrics.json";
  ASSERT_TRUE(RunExperiment(*config).ok());
  const std::string& path = config->metrics_out;
  EXPECT_EQ(CounterIn(path, "invocations.outcome", {{"outcome", "ok"}}), 1);
  EXPECT_EQ(CounterIn(path, "invocations.outcome", {{"outcome", "shed_queue_full"}}), 6);
  EXPECT_EQ(CounterIn(path, "invocations.outcome", {{"outcome", "shed_deadline"}}), 1);
  EXPECT_EQ(CounterIn(path, "invocations.outcome", {{"outcome", "degraded"}}), 0);
  EXPECT_EQ(CounterIn(path, "invocations.outcome", {{"outcome", "failed"}}), 0);
}

TEST(ExperimentRunner, FaultFreeLeverOffRunRegistersEverySeriesAtZero) {
  // Chaos and the fault-path levers are off; their series are present anyway,
  // so every run's metrics snapshot has one shape.
  Result<ExperimentConfig> config = Parse(R"({
    "functions": ["json"],
    "systems": ["reap", "faasnap"],
    "reps": 1
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_FALSE(config->platform.fault_path.batched_uffd_install);
  ASSERT_FALSE(config->platform.fault_path.huge_pages);
  ASSERT_FALSE(config->platform.fault_path.fault_coalescing);
  config->metrics_out = ::testing::TempDir() + "lever_off.metrics.json";
  ASSERT_TRUE(RunExperiment(*config).ok());
  const std::string& path = config->metrics_out;
  for (const char* name : {"faults.batch_installs", "faults.batch_pages", "faults.huge_installs",
                           "faults.huge_pages", "faults.huge_splits", "faults.coalesced",
                           "storage.retries", "storage.failovers", "storage.breaker_opens",
                           "storage.read_failures", "page_cache.failed_reads"}) {
    EXPECT_EQ(CounterIn(path, name), 0) << name;
  }
  EXPECT_EQ(CounterIn(path, "faults.by_class", {{"class", "huge-install"}}), 0);
  EXPECT_EQ(CounterIn(path, "invocations.outcome", {{"outcome", "ok"}}), 2);
}

// The cell for `system` when the config lists `systems`.
ExperimentCell CellUnder(const std::string& function, const std::string& test_input,
                         const std::string& systems, const std::string& system) {
  Result<ExperimentConfig> config = Parse(R"({"functions": [")" + function +
                                          R"("], "test_inputs": [")" + test_input +
                                          R"("], "systems": )" + systems + R"(, "reps": 2})");
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  Result<ExperimentResults> results = RunExperiment(*config);
  EXPECT_TRUE(results.ok()) << results.status().ToString();
  for (const ExperimentCell& cell : results->cells) {
    if (cell.system == system) {
      return cell;
    }
  }
  ADD_FAILURE() << system << " missing from " << systems;
  return ExperimentCell{};
}

void ExpectSameCell(const ExperimentCell& a, const ExperimentCell& b) {
  EXPECT_EQ(a.total_ms.count(), b.total_ms.count());
  EXPECT_EQ(a.total_ms.mean(), b.total_ms.mean());
  EXPECT_EQ(a.total_ms.stddev(), b.total_ms.stddev());
  EXPECT_EQ(a.setup_ms.mean(), b.setup_ms.mean());
  EXPECT_EQ(a.invocation_ms.mean(), b.invocation_ms.mean());
  EXPECT_EQ(a.sample.faults.total_faults(), b.sample.faults.total_faults());
  EXPECT_EQ(a.sample.disk.read_requests, b.sample.disk.read_requests);
}

TEST(ExperimentRunner, CellDoesNotDependOnTheSystemsListedBeforeIt) {
  // Each (system, rep) runs on its own platform, so device jitter drawn by
  // Firecracker's test phase cannot leak into REAP's cell.
  ExpectSameCell(CellUnder("image", "B", R"(["reap"])", "reap"),
                 CellUnder("image", "B", R"(["firecracker", "reap"])", "reap"));
}

TEST(ExperimentRunner, RatioCellsGetTheSameInputInEverySystem) {
  // A ratio input's content depends on the rep only, not on the system's
  // position in the list.
  ExpectSameCell(CellUnder("json", "2x", R"(["faasnap"])", "faasnap"),
                 CellUnder("json", "2x", R"(["cached", "faasnap"])", "faasnap"));
}

TEST(ExperimentRunner, TraceHasOneTrackPerSystemAndRep) {
  Result<ExperimentConfig> config = Parse(R"({
    "functions": ["json"],
    "systems": ["reap", "faasnap"],
    "reps": 2
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  config->trace_out = ::testing::TempDir() + "tracks.trace.json";
  ASSERT_TRUE(RunExperiment(*config).ok());
  std::ifstream in(config->trace_out);
  std::stringstream text;
  text << in.rdbuf();
  for (const char* track : {"json input=B system=reap rep=0", "json input=B system=reap rep=1",
                            "json input=B system=faasnap rep=0",
                            "json input=B system=faasnap rep=1"}) {
    EXPECT_NE(text.str().find(track), std::string::npos) << track;
  }
}

TEST(ExperimentRunner, RatioInputsScaleWork) {
  Result<ExperimentConfig> config = Parse(R"({
    "functions": ["image"],
    "systems": ["faasnap"],
    "test_inputs": ["0.5x", "4x"],
    "reps": 1
  })");
  ASSERT_TRUE(config.ok());
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->cells.size(), 2u);
  EXPECT_LT(results->cells[0].total_ms.mean(), results->cells[1].total_ms.mean());
}

}  // namespace
}  // namespace faasnap
