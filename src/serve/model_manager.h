#ifndef ARECEL_SERVE_MODEL_MANAGER_H_
#define ARECEL_SERVE_MODEL_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "data/table.h"

namespace arecel::store {
class ModelStore;
}  // namespace arecel::store

namespace arecel::serve {

using ServeEstimatorFactory =
    std::function<std::unique_ptr<CardinalityEstimator>(const std::string&)>;

struct ModelManagerOptions {
  // Directory for persisted models ("" disables). A cold load first tries
  // `<model_dir>/<dataset>.<estimator>.model` via LoadEstimator; after a
  // successful version-0 train, estimators that support persistence (cheap
  // counting probe, core/model_io.h) are saved back so the next process
  // skips training entirely.
  std::string model_dir;

  // Crash-safe versioned model store (src/store/). When set it supersedes
  // model_dir: cold loads read the last committed generation through the
  // store's checksum-verified recovery path (restart = warm start), and
  // save-backs are queued for the MaintenanceWorker instead of running
  // inline on the serving thread. A payload the store serves but the
  // deserializer rejects as corrupt poisons only that instance: the manager
  // discards it, counts a corrupt_load, and cold-trains.
  std::shared_ptr<arecel::store::ModelStore> store;

  // Labelled workload size for query-driven methods trained on first use.
  size_t train_query_count = 2000;

  // Base training seed; the effective seed is TrainSeedForVersion(base,
  // data version) so a refresh at version v is reproducible by a manual
  // retrain at the same version.
  uint64_t train_seed = 42;

  // Estimator constructor, defaulting to the registry's MakeEstimator.
  // Tests and the bench swap in fault-injecting wrappers here.
  ServeEstimatorFactory factory;
};

// Deterministic training seed for (base seed, data version): refreshed
// models must be bit-identical to a fresh retrain at the same version,
// which is what the serve tests pin.
uint64_t TrainSeedForVersion(uint64_t base_seed, uint64_t data_version);

// One servable trained model. Immutable after publication except for the
// inference mutex, which serializes EstimateSelectivity calls for
// estimators whose inference is not a pure read (ThreadSafeEstimates()
// false: naru / bayes / dqm-d / guarded).
struct ServedModel {
  std::shared_ptr<CardinalityEstimator> estimator;
  uint64_t data_version = 0;
  size_t trained_rows = 0;
  bool thread_safe = true;
  std::string source;  // "trained" | "loaded" | "refreshed".
  double train_seconds = 0.0;
  mutable std::mutex inference_mutex;
};

struct ManagerCounters {
  uint64_t cold_trains = 0;
  uint64_t persisted_loads = 0;
  uint64_t model_saves = 0;
  uint64_t refreshes = 0;            // background retrains completed.
  uint64_t refresh_failures = 0;     // background retrains that threw.
  uint64_t single_flight_waits = 0;  // requests that waited on a cold load.
  uint64_t train_failures = 0;
  uint64_t evictions = 0;
  uint64_t corrupt_loads = 0;    // store payloads rejected as corrupt.
  uint64_t saves_enqueued = 0;   // save-backs queued for the worker.
  uint64_t packed_models = 0;    // models packed for serving (PackForServing).
};

// A trained model awaiting write-back to the store. The worker serializes
// it (under the inference mutex when the estimator's inference mutates
// state) and commits it as a new generation.
struct PendingSave {
  std::string dataset;
  std::string estimator;
  std::shared_ptr<const ServedModel> model;
};

// Loaded-model inventory row for the maintenance worker's staleness scan.
struct LoadedModelInfo {
  std::string dataset;
  std::string estimator;
  uint64_t data_version = 0;
  bool refreshing = false;
};

// Owns the dataset snapshots and the trained estimators behind the serving
// layer, keyed by (dataset, estimator name).
//
// Concurrency contract:
//  * GetModel is single-flight: N concurrent requests for the same cold
//    model run exactly one train (or persisted load); the rest block and
//    share the result.
//  * ApplyUpdate installs a new table snapshot under a fresh data version;
//    existing models keep serving (stale-while-revalidate) until
//    RefreshModelsAsync's background retrain swaps them, one atomically
//    published ServedModel at a time.
//  * Published ServedModels are immutable, so readers never need a lock to
//    use one (beyond the inference mutex for stochastic estimators).
class ModelManager {
 public:
  explicit ModelManager(ModelManagerOptions options = {});
  ~ModelManager();  // waits for in-flight background refreshes.

  ModelManager(const ModelManager&) = delete;
  ModelManager& operator=(const ModelManager&) = delete;

  // Installs (or replaces) a dataset snapshot at data version 0. The table
  // must be finalized.
  void RegisterDataset(const std::string& name, Table table);

  bool HasDataset(const std::string& name) const;
  std::vector<std::string> DatasetNames() const;
  // The dataset's current table (nullptr when unknown) and, when `version`
  // is given, its data version, read as one consistent pair.
  std::shared_ptr<const Table> TableSnapshot(const std::string& dataset,
                                             uint64_t* version = nullptr) const;
  uint64_t DataVersion(const std::string& dataset) const;

  // Single-flight get-or-load-or-train. Returns nullptr (and fills *error
  // when given) if the dataset is unknown or training failed; a failed load
  // is forgotten, so the next request retries.
  std::shared_ptr<const ServedModel> GetModel(const std::string& dataset,
                                              const std::string& estimator,
                                              std::string* error = nullptr);

  // The paper's append-update procedure (§5.1 sorted-copy append):
  // appends `fraction` * rows correlated tuples, installs the new snapshot,
  // and returns the bumped data version. Serving continues from the old
  // models until RefreshModelsAsync completes.
  uint64_t ApplyUpdate(const std::string& dataset, double fraction,
                       uint64_t seed);

  // Kicks one background full retrain per loaded model of `dataset` that
  // is older than the current data version. Returns how many were started.
  // A failed retrain keeps the stale model serving and counts a
  // refresh_failure.
  size_t RefreshModelsAsync(const std::string& dataset);

  // Blocks until no background refresh is in flight.
  void WaitForRefreshes();

  // Synchronous single-model refresh for the maintenance worker: retrains
  // (dataset, estimator) at the current data version on the calling thread
  // and atomically swaps it in. Returns false — without touching the
  // serving entry — when the model is not loaded, already refreshing,
  // already fresh, or the retrain failed (stale model keeps serving).
  // `cancel` is threaded into TrainContext so a watchdog (RunGuarded) can
  // cut a hung retrain loose cooperatively.
  bool RefreshModelNow(const std::string& dataset,
                       const std::string& estimator,
                       const CancellationToken* cancel = nullptr,
                       std::string* error = nullptr);

  // Drains the save-back queue (trained models waiting for the maintenance
  // worker to persist them). Models enqueue after successful cold trains
  // and refreshes when a store is configured and the estimator supports
  // persistence.
  std::vector<PendingSave> TakePendingSaves();

  // Snapshot of the ready serving entries, for the worker's staleness scan.
  std::vector<LoadedModelInfo> LoadedModels() const;

  // Drops a model entry (e.g. after a per-request deadline abandoned a
  // worker inside a non-thread-safe model). The next GetModel retrains.
  void Evict(const std::string& dataset, const std::string& estimator);

  ManagerCounters counters() const;

  const ModelManagerOptions& options() const { return options_; }

 private:
  struct DatasetState {
    std::shared_ptr<const Table> table;
    uint64_t version = 0;
  };

  struct ModelEntry {
    bool ready = false;       // false while the single-flight load runs.
    bool refreshing = false;  // a background retrain is in flight.
    std::shared_ptr<const ServedModel> model;
  };

  static std::string ModelKey(const std::string& dataset,
                              const std::string& estimator);
  std::string ModelPath(const std::string& dataset,
                        const std::string& estimator) const;

  // Reads (snapshot, version) as one consistent pair.
  bool Snapshot(const std::string& dataset,
                std::shared_ptr<const Table>* table, uint64_t* version,
                std::string* error) const;

  // Trains (or loads) one model outside any lock. Returns nullptr and
  // fills *error on failure.
  std::shared_ptr<const ServedModel> BuildModel(
      const std::string& dataset, const std::string& estimator,
      const std::shared_ptr<const Table>& table, uint64_t version,
      bool is_refresh, std::string* error,
      const CancellationToken* cancel = nullptr);

  ModelManagerOptions options_;

  mutable std::mutex data_mutex_;
  std::map<std::string, DatasetState> datasets_;

  mutable std::mutex models_mutex_;
  std::condition_variable models_cv_;
  std::map<std::string, ModelEntry> models_;

  std::condition_variable refresh_cv_;
  int active_refreshes_ = 0;            // guarded by models_mutex_.
  std::vector<std::thread> refresh_threads_;  // guarded by models_mutex_.

  mutable std::mutex counters_mutex_;
  ManagerCounters counters_;

  mutable std::mutex saves_mutex_;
  std::vector<PendingSave> pending_saves_;
};

}  // namespace arecel::serve

#endif  // ARECEL_SERVE_MODEL_MANAGER_H_
