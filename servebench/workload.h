#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // stream time, split evenly over the two phases.
  bool trace = false;     // per-layer run instead of the end-to-end run.
  bool smoke = false;     // small tables: every check runs in seconds.
  std::string trace_out;  // spans file of a traced run; empty: not written.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;  // failed output checks.
  uint64_t attempted = 0;           // estimates requested.
  uint64_t failed = 0;              // responses that were not ok.
  std::vector<Metric> metrics;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload end to end: set-up, a scored pass and a timed stream,
// the §5.1 append update, then a second scored pass and stream. Every
// response is checked; a failed check clears `correct`.
RunResult RunWorkload(const RunOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
