// The serving benchmark. Usage:
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--smoke] [--commit <id>] [--trace-out <file>]
// Prints a fingerprint line, a run summary, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit code 0 when
// every output check passed, 1 when one failed, 2 on bad arguments.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ml/kernels.h"
#include "util/thread_pool.h"
#include "workload.h"

extern char** environ;

namespace {

// Removes every ARECEL_* variable from this process before anything reads
// one, so each run measures the program's defaults. Returns what it removed.
std::vector<std::string> ClearArecelEnvironment() {
  std::vector<std::string> removed;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env)
    if (std::strncmp(*env, "ARECEL_", 7) == 0) removed.emplace_back(*env);
  for (const std::string& entry : removed)
    unsetenv(entry.substr(0, entry.find('=')).c_str());
  return removed;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--commit <id>] "
               "[--trace-out <file>]\nworkloads:",
               why);
  for (const std::string& name : servebench::WorkloadNames())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> cleared = ClearArecelEnvironment();

  servebench::RunOptions options;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0) ||
          options.seconds > 600)
        return Usage("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : servebench::WorkloadNames())
    known = known || name == options.workload;
  if (!have_workload || !known) return Usage("unknown or missing --workload");
  if (!have_seed) return Usage("--seed needs a whole number");

  std::string env_json;
  for (const std::string& entry : cleared)
    env_json += (env_json.empty() ? "" : ",") + JsonString(entry);
  std::printf(
      "fingerprint: {\"nproc\": %u, \"workers\": %d, \"ml_backend\": %s, "
      "\"simd\": %s, \"cpu_flags\": %s, \"build_type\": %s, \"commit\": %s, "
      "\"seed\": %llu, \"smoke\": %s, \"cleared_env\": [%s]}\n",
      std::thread::hardware_concurrency(), arecel::ParallelWorkerCount(),
      JsonString(arecel::MlKernelBackendName(arecel::ActiveMlKernelBackend()))
          .c_str(),
      JsonString(arecel::MlKernelSimdName()).c_str(),
      JsonString(arecel::MlCpuFeatureFlags()).c_str(),
      JsonString(SERVEBENCH_BUILD_TYPE).c_str(), JsonString(commit).c_str(),
      static_cast<unsigned long long>(options.seed),
      options.smoke ? "true" : "false", env_json.c_str());
  std::fflush(stdout);

  servebench::RunResult result = servebench::RunWorkload(options);
  std::string metrics;
  for (const servebench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.correct = false;
      result.errors.push_back("metric " + m.name + " is not finite");
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + value + ", \"unit\": " + JsonString(m.unit) +
               "}";
  }
  for (const std::string& error : result.errors)
    std::fprintf(stderr, "servebench: check failed: %s\n", error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.correct ? 0 : 1;
}
