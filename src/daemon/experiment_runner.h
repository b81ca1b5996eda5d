// ExperimentRunner: executes a parsed ExperimentConfig and renders results —
// the counterpart of the paper artifact's `test.py` driver (Appendix A.4).
//
// Every cell (function, test input, system) runs each repetition on a fresh
// platform seeded `base_seed + rep * 7919`: one record phase (which drops the
// caches), then a burst of `parallelism` simultaneous test-phase invocations
// (one by default) offered to an AdmissionController. A cell's numbers
// therefore do not depend on which other systems or inputs the config lists.

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
  // The full report of the cell's last completed invocation (last rep), for
  // callers that need fault, IO or memory detail beyond the stats above.
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
