// ExperimentRunner: executes a parsed ExperimentConfig and renders results —
// the counterpart of the paper artifact's `test.py` driver (Appendix A.4).
//
// For every (function, test input): one platform per repetition, one record
// phase, then per system a burst of `parallelism` simultaneous test-phase
// invocations (one by default) offered to an AdmissionController, with caches
// dropped between systems.

#ifndef FAASNAP_SRC_DAEMON_EXPERIMENT_RUNNER_H_
#define FAASNAP_SRC_DAEMON_EXPERIMENT_RUNNER_H_

#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/daemon/experiment_config.h"
#include "src/metrics/report.h"

namespace faasnap {

struct ExperimentCell {
  std::string function;
  std::string system;
  std::string test_input;
  RunningStats total_ms;
  RunningStats setup_ms;
  RunningStats invocation_ms;
  // Outcome tallies across the cell's invocations (all kOk on fault-free runs).
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t failed = 0;
  // Arrivals the admission layer rejected or deadline-dropped (both shed
  // outcomes fold into one tally here).
  int64_t shed = 0;
  // Representative last-rep detail for JSON export.
  InvocationReport sample;
};

struct ExperimentResults {
  std::string name;
  std::vector<ExperimentCell> cells;

  // Fixed-width table, one row per cell.
  std::string ToTable() const;
  // One JSON object per cell (array document) for downstream tooling.
  std::string ToJson() const;
};

// Runs the whole config. Errors only on configuration problems (unknown
// functions were already rejected at parse time).
Result<ExperimentResults> RunExperiment(const ExperimentConfig& config);

}  // namespace faasnap

#endif  // FAASNAP_SRC_DAEMON_EXPERIMENT_RUNNER_H_
