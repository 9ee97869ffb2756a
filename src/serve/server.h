#ifndef ARECEL_SERVE_SERVER_H_
#define ARECEL_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "feedback/hub.h"
#include "robustness/failure.h"
#include "robustness/runner.h"
#include "serve/cache.h"
#include "serve/model_manager.h"
#include "store/model_store.h"
#include "workload/query.h"

namespace arecel::store {
class MaintenanceWorker;
}  // namespace arecel::store

namespace arecel::serve {

// Serving-layer configuration. Environment knobs (ServeOptionsFromEnv):
//   ARECEL_SERVE_CACHE_MB  estimate-cache capacity in MB (default 64;
//                          0 disables the cache entirely)
//   ARECEL_SERVE_THREADS   batch dispatch width (default: the scan
//                          engine's worker count)
//   ARECEL_FEEDBACK        non-zero enables the online query-feedback loop
//                          (default off: serving behavior is bit-identical
//                          to the pre-feedback server unless opted in)
//   ARECEL_FEEDBACK_QUEUE  truth-worker queue capacity (default 1024)
//   ARECEL_STORE_DIR       enables the crash-safe versioned model store
//                          (src/store/, DESIGN.md §12): cold loads become
//                          warm starts through checksum-verified recovery,
//                          and an embedded MaintenanceWorker owns staleness
//                          refresh + write-back off the serving threads
//                          (ARECEL_STORE_MAX_GENERATIONS,
//                          ARECEL_MAINT_INTERVAL_MS)
// plus the ARECEL_FEEDBACK_* store knobs FeedbackOptionsFromEnv reads and
// the robustness knobs RobustOptionsFromEnv already reads —
// ARECEL_QUERY_DEADLINE arms the per-request watchdog.
struct ServeOptions {
  size_t cache_bytes = 64ull << 20;
  size_t cache_shards = 16;
  bool cache_enabled = true;
  int dispatch_threads = 0;  // <= 0: ParallelWorkerCount().

  // Per-request deadline reuses RobustOptions.query_deadline_seconds; <= 0
  // runs inference inline with no watchdog thread. The failure taxonomy is
  // shared with the bench harness (kEstimateTimeout / kEstimateThrew / ...).
  robust::RobustOptions robust;

  // The paper's §5.1 dynamic-update append fraction (20%).
  double update_fraction = 0.2;

  // Online query-feedback loop (src/feedback/, DESIGN.md §11). Off by
  // default; when enabled every served estimate is asynchronously labeled
  // with its exact selectivity and the truth feeds either the estimator
  // itself (FeedbackSink models) or a per-(dataset, estimator) residual
  // correction applied to future answers.
  bool feedback_enabled = false;
  size_t feedback_queue = 1024;
  feedback::FeedbackOptions feedback;

  ModelManagerOptions manager;
};

ServeOptions ServeOptionsFromEnv();

// One served estimate. `cardinality` is selectivity x the rows the serving
// model was trained on — under stale-while-revalidate that is the stale
// model's view until the background refresh swaps in the new one.
struct EstimateResponse {
  bool ok = false;
  FailureKind failure = FailureKind::kNone;
  std::string detail;
  double selectivity = 0.0;
  double cardinality = 0.0;
  bool cache_hit = false;
  uint64_t data_version = 0;
  double latency_ms = 0.0;
};

// Latency summary for one (dataset, estimator) serving key, computed from
// a bounded window of recent requests (util/stats.h percentiles).
struct ModelLatencyStats {
  std::string model;  // "dataset/estimator".
  uint64_t requests = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

struct ServerStats {
  uint64_t requests = 0;
  uint64_t batches = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t estimate_errors = 0;    // threw or non-finite.
  uint64_t model_failures = 0;     // GetModel returned no model.
  uint64_t updates = 0;
  CacheStats cache;
  ManagerCounters manager;
  bool feedback_enabled = false;
  feedback::FeedbackHubStats feedback;
  std::vector<ModelLatencyStats> latencies;
  bool store_enabled = false;
  store::StoreStats store;  // zero-valued unless store_enabled.
  // ML compute configuration of this process, so cross-machine serving
  // numbers are interpretable (ml/kernels.h): the active kernel backend
  // ("reference"/"fast"/"quant"), the resolved SIMD tier ("avx512"/
  // "avx2-fma"/"portable"), and the raw CPUID feature flags.
  std::string ml_backend;
  std::string ml_simd;
  std::string ml_cpu_flags;
};

// In-process cardinality-estimation server: the long-lived path the bench
// binaries never had. Wraps a ModelManager (train-once / load / refresh)
// and an EstimateCache (sharded LRU over canonical predicate fingerprints)
// behind single and batched Estimate calls.
//
// Threading: every public method is safe to call concurrently. Batches fan
// out across dispatch_threads when the serving model's inference is a pure
// read (CardinalityEstimator::ThreadSafeEstimates); stochastic-inference
// models are dispatched sequentially under the model's inference mutex, so
// their per-instance counters never race.
//
// Staleness: Update() appends 20% correlated rows (the paper's §5.1
// procedure), bumps the dataset's data version, drops the dataset's cache
// entries, and kicks background retrains. Until a retrain lands, requests
// are served by the stale model — the §6.4 "estimator lags behind data"
// regime — and cache keys carry the stale version so a refreshed model can
// never serve a stale cached estimate.
class EstimatorServer {
 public:
  explicit EstimatorServer(ServeOptions options);
  EstimatorServer() : EstimatorServer(ServeOptionsFromEnv()) {}
  ~EstimatorServer();  // stops the maintenance worker before the manager.

  // Registers a dataset snapshot at data version 0. With the feedback loop
  // on, residuals learned under an earlier registration of the name are
  // forgotten.
  void RegisterDataset(const std::string& name, Table table);

  // Trains (or loads) the model if cold — single-flight — then serves the
  // estimate, consulting the cache first. Cache hits return exactly the
  // selectivity the estimator produced when the entry was filled; for
  // deterministic-inference estimators that is bit-identical to what a
  // fresh call would return.
  EstimateResponse Estimate(const std::string& dataset,
                            const std::string& estimator, const Query& query);

  // Batched dispatch: resolves the model once, then fans the queries out
  // across the dispatch threads. Responses are positionally aligned with
  // `queries`.
  std::vector<EstimateResponse> EstimateBatch(
      const std::string& dataset, const std::string& estimator,
      const std::vector<Query>& queries);

  // The §5.1 data update + staleness protocol described above. Returns the
  // new data version (0 if the dataset is unknown).
  uint64_t Update(const std::string& dataset, uint64_t seed = 97);

  // Blocks until every background model refresh has landed.
  void WaitForRefreshes() { manager_.WaitForRefreshes(); }

  // Runtime cache toggle (the bench sweeps cache on/off on one server).
  void set_cache_enabled(bool enabled) { cache_enabled_.store(enabled); }
  bool cache_enabled() const { return cache_enabled_.load(); }
  void ClearCache() { cache_.Clear(); }

  // The online feedback loop; null unless options.feedback_enabled. Tests
  // and benches call DrainFeedback() to make the asynchronous truth path
  // deterministic before asserting on corrected estimates.
  feedback::FeedbackHub* feedback() { return feedback_.get(); }
  void DrainFeedback() {
    if (feedback_ != nullptr) feedback_->Drain();
  }

  ServerStats Stats() const;

  ModelManager& manager() { return manager_; }
  const ServeOptions& options() const { return options_; }

  // The embedded maintenance worker; null unless a model store is
  // configured. Tests call TickNow() through this for determinism.
  store::MaintenanceWorker* maintenance() { return maintenance_.get(); }

 private:
  struct LatencyWindow {
    std::vector<double> values;  // ring buffer once full.
    size_t next = 0;
    bool full = false;
    uint64_t requests = 0;
  };

  // Core of Estimate/EstimateBatch once the model is resolved.
  EstimateResponse EstimateWithModel(
      const std::string& dataset, const std::string& estimator,
      const std::shared_ptr<const ServedModel>& model, const Query& query);

  // Runs one inference under the per-request deadline (or inline when
  // disabled), filling failure/detail on timeout/throw.
  bool RunInference(const std::string& dataset, const std::string& estimator,
                    const std::shared_ptr<const ServedModel>& model,
                    const Query& query, double* selectivity,
                    EstimateResponse* response);

  void RecordLatency(const std::string& dataset, const std::string& estimator,
                     double ms);

  // Queues the served query for asynchronous exact labeling (no-op when the
  // loop is disabled). `base_selectivity` is the pre-correction estimate.
  void EnqueueFeedback(const std::string& dataset,
                       const std::string& estimator,
                       const std::shared_ptr<const ServedModel>& model,
                       const Query& query, double base_selectivity,
                       bool from_cache_hit);

  ServeOptions options_;
  ModelManager manager_;
  EstimateCache cache_;
  std::atomic<bool> cache_enabled_;
  std::unique_ptr<feedback::FeedbackHub> feedback_;
  // Declared after manager_: destroyed (and Stop()ped) first, so the
  // worker's non-owning manager alias never dangles.
  std::unique_ptr<store::MaintenanceWorker> maintenance_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> estimate_errors_{0};
  std::atomic<uint64_t> model_failures_{0};
  std::atomic<uint64_t> updates_{0};

  mutable std::mutex latency_mutex_;
  // dataset -> estimator -> window: the per-request lookup builds no
  // combined key.
  std::map<std::string, std::map<std::string, LatencyWindow>> latencies_;
};

}  // namespace arecel::serve

#endif  // ARECEL_SERVE_SERVER_H_
