// Experiment configs: the JSON-driven evaluation workflow of the paper's
// artifact (Appendix A.4 drives every experiment with `test.py <config>.json`;
// this repository mirrors it with `artifact_runner configs/<config>.json`).
//
// Config schema (all fields optional unless noted):
// {
//   "name": "two-input test",
//   "functions": ["json", "image", ...],        // required, catalog names
//   "systems": ["firecracker", "reap", "faasnap", "cached"],
//   "record_input": "A",                        // "A" | "B"
//   "test_inputs": ["B"],                       // "A" | "B" | a ratio like "2x"
//   "reps": 3,
//   "parallelism": 1,                           // burst width (Figure 10 style)
//   "device": "nvme",                           // "nvme" | "ebs"
//   "host_cores": 96,
//   "ws_group_size": 1024,
//   "merge_gap_pages": 32,
//   "base_seed": 1,
//   "disk_queue_depth": 32,                     // 0 = legacy issue-time FIFO claiming
//   "disk_prefetch_slots": 8,                   // device slots prefetch may hold
//   "prefetch_aging_us": 2000,                  // queued-prefetch starvation bound
//   "disk_max_merge_kib": 1024,                 // request coalescing cap; 0 disables
//   "loader_chunk_pages": 512,                  // prefetch loader read size
//   "loader_pipeline_depth": 4,                 // loader IO queue depth
//   "loader_adaptive_depth": true,              // halve depth under demand pressure
//   "loader_min_depth": 1,                      // adaptive floor
//   "loader_ramp_quiet_us": 1000,               // quiet time before depth ramps back
//   "trace_out": "trace.json",                  // Perfetto/Chrome trace export
//   "metrics_out": "metrics.json",              // metrics registry snapshot
//   "timeline_out": "run.timeline.jsonl",       // windowed metrics deltas (JSONL)
//   "timeline_window_us": 100000,               // window size; <= 0 = default 100ms
//   "forensics_out": "forensics.json",          // flight-recorder digest document
//   "forensics": {                              // tail-based invocation forensics
//     "enabled": true,                          // default true when block present
//     "slowest_k": 16,                          // keep spans of the K slowest ok
//     "max_non_ok": 1024,                       // ... and of non-ok, up to this cap
//     "buffer_capacity": 65536                  // recycling span-buffer records
//   },
//   "admission": {                              // burst admission limits; absent =
//                                               //   admit the whole burst at once
//     "max_concurrency": 8,                     // in-flight invocation cap
//     "queue_capacity": 64,                     // waiters beyond this shed
//     "queue_deadline_us": 500000,              // waiters older than this shed
//     "memory_budget_mib": 0,                   // 0 disables memory admission
//     "fairness_share": 0.0                     // per-function slot share; 0 off
//   },
//   "chaos": {                                  // deterministic fault injection
//     "enabled": true,                          // default true when block present
//     "seed": 42,
//     "read_error_rate": 0.05,                  // per-read IO_ERROR probability
//     "read_delay_rate": 0.05,                  // per-read latency-spike probability
//     "read_delay_us": 2000,
//     "corrupt_file_rate": 0.1,                 // per-registered-file corruption
//     "loader_stall_rate": 0.05,                // per-chunk loader stall
//     "loader_stall_us": 1000,
//     "remote_outage_mean_gap_us": 50000,       // 0 disables outages; > 0 also
//     "remote_outage_duration_us": 5000,        //   provisions a remote tier
//     "spare_record_phase": true,
//     "max_attempts": 4,                        // storage retry/breaker policy
//     "read_deadline_us": 40000,
//     "breaker_failure_threshold": 4,
//     "breaker_open_for_us": 20000
//   }
// }
//
// When "remote_outage_mean_gap_us" > 0 the platform gets a remote (EBS) tier
// with memory files placed on it — outage windows need a remote device to hit,
// mirroring the Figure 11 tiered-storage setup.

#ifndef FAASNAP_SRC_DAEMON_EXPERIMENT_CONFIG_H_
#define FAASNAP_SRC_DAEMON_EXPERIMENT_CONFIG_H_

#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/core/platform_config.h"
#include "src/obs/flight_recorder.h"
#include "src/restore/restore_policy.h"
#include "src/runtime/admission.h"

namespace faasnap {

// One test-phase input selector: a fixed Table 2 input or a Figure 8 ratio.
struct TestInputSpec {
  enum class Kind { kInputA, kInputB, kRatio };
  Kind kind = Kind::kInputB;
  double ratio = 1.0;
  std::string label;  // as written in the config
};

// Parses "A", "B" or a ratio relative to input A such as "0.5x" or "2x".
Result<TestInputSpec> ParseTestInput(const std::string& text);

struct ExperimentConfig {
  std::string name = "experiment";
  std::vector<std::string> functions;
  std::vector<RestoreMode> systems = {RestoreMode::kFirecracker, RestoreMode::kReap,
                                      RestoreMode::kFaasnap, RestoreMode::kCached};
  TestInputSpec record_input{.kind = TestInputSpec::Kind::kInputA, .label = "A"};
  std::vector<TestInputSpec> test_inputs;
  int reps = 3;
  int parallelism = 1;
  uint64_t base_seed = 1;

  // Each cell's `parallelism` simultaneous requests are offered to an
  // AdmissionController with these limits; overflow and deadline-expired
  // waiters are shed with typed outcomes (the cell's shed column). Without an
  // "admission" block the parser sets AdmitWholeBurst(parallelism).
  AdmissionConfig admission;

  // Observability outputs; empty = disabled. trace_out receives a Perfetto-
  // loadable Chrome trace (one track per function, input, system and rep),
  // metrics_out the metrics registry snapshot. Both cover the whole experiment.
  std::string trace_out;
  std::string metrics_out;

  // Windowed metrics timeline: one JSONL line per virtual-time window that saw
  // activity (src/obs/metrics_timeline.h). `timeline_window_us` <= 0 keeps the
  // MetricsTimeline default.
  std::string timeline_out;
  Duration timeline_window;

  // Tail-based invocation forensics ("forensics" config block). When enabled,
  // spans record into the flight recorder's recycling buffer instead of the
  // run-wide tracer: trace_out then holds only the retained (slowest-K +
  // non-ok) invocations, and forensics_out the streaming digest document.
  bool forensics = false;
  ForensicsConfig forensics_config;
  std::string forensics_out;

  // Platform knobs resolved from the config (device, cores, FaaSnap tunables).
  PlatformConfig platform;
};

// The admission limits of a config without an "admission" block: all
// `parallelism` requests run at once, with no queue, deadline or memory budget.
AdmissionConfig AdmitWholeBurst(int parallelism);

// Parses a config document. InvalidArgument on unknown functions/systems/inputs
// and on out-of-range values.
Result<ExperimentConfig> ParseExperimentConfig(const JsonValue& root);

// Reads and parses a config file.
Result<ExperimentConfig> LoadExperimentConfig(const std::string& path);

}  // namespace faasnap

#endif  // FAASNAP_SRC_DAEMON_EXPERIMENT_CONFIG_H_
