// Shared helpers for the figure/table benchmark harnesses.
//
// Each bench binary reproduces one table or figure from the paper's evaluation.
// Figure cells run through RunExperiment (src/daemon/experiment_runner.h), the
// same engine as `artifact_runner`: per (system, rep) a fresh platform records
// the function, drops caches and runs the test phase (section 6.1). Benches
// that need snapshot internals call Platform::Record/Invoke directly.

#ifndef FAASNAP_BENCH_BENCH_UTIL_H_
#define FAASNAP_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "src/daemon/experiment_runner.h"
#include "src/metrics/table.h"
#include "src/runtime/platform.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace bench {

// An in-code experiment: record with input A, test with `test_input` ("A",
// "B" or a ratio like "2x"), one invocation per (system, rep), on a default
// platform with seed 1.
ExperimentConfig CellConfig(std::vector<std::string> functions,
                            std::vector<RestoreMode> systems, const std::string& test_input,
                            int reps);

// Runs `config`; aborts on an error (bench configs name catalog functions only).
std::vector<ExperimentCell> RunCells(const ExperimentConfig& config);

// "123.4 +- 5.6" cell text: mean and stddev of a cell's total time.
std::string StatCell(const RunningStats& stats);

// The four systems of Figures 1/6/7 in presentation order.
std::vector<RestoreMode> PaperSystems();

// The three synthetic functions followed by the nine benchmark functions.
std::vector<std::string> AllFunctionNames();

// Prints a standard figure banner.
void PrintBanner(const std::string& figure, const std::string& caption);

}  // namespace bench
}  // namespace faasnap

#endif  // FAASNAP_BENCH_BENCH_UTIL_H_
