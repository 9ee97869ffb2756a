#include "serve/model_manager.h"

#include <exception>
#include <fstream>
#include <utility>

#include "core/model_io.h"
#include "core/registry.h"
#include "data/datasets.h"
#include "store/model_store.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace arecel::serve {

namespace {

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

}  // namespace

uint64_t TrainSeedForVersion(uint64_t base_seed, uint64_t data_version) {
  // Same spirit as the robust runner's retry_seed_stride: a distinct,
  // deterministic seed per version so refreshes neither replay the stale
  // model's randomness nor depend on wall-clock state.
  return base_seed + data_version * 1000003ull;
}

ModelManager::ModelManager(ModelManagerOptions options)
    : options_(std::move(options)) {
  if (!options_.factory) {
    options_.factory = [](const std::string& name) {
      return MakeEstimator(name);
    };
  }
}

ModelManager::~ModelManager() { WaitForRefreshes(); }

std::string ModelManager::ModelKey(const std::string& dataset,
                                   const std::string& estimator) {
  return dataset + '\x1f' + estimator;
}

std::string ModelManager::ModelPath(const std::string& dataset,
                                    const std::string& estimator) const {
  return options_.model_dir + "/" + dataset + "." + estimator + ".model";
}

void ModelManager::RegisterDataset(const std::string& name, Table table) {
  auto shared = std::make_shared<const Table>(std::move(table));
  std::lock_guard<std::mutex> lock(data_mutex_);
  datasets_[name] = DatasetState{std::move(shared), 0};
}

bool ModelManager::HasDataset(const std::string& name) const {
  std::lock_guard<std::mutex> lock(data_mutex_);
  return datasets_.count(name) > 0;
}

std::vector<std::string> ModelManager::DatasetNames() const {
  std::lock_guard<std::mutex> lock(data_mutex_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, state] : datasets_) names.push_back(name);
  return names;
}

std::shared_ptr<const Table> ModelManager::TableSnapshot(
    const std::string& dataset, uint64_t* version) const {
  std::lock_guard<std::mutex> lock(data_mutex_);
  auto it = datasets_.find(dataset);
  if (version != nullptr)
    *version = it == datasets_.end() ? 0 : it->second.version;
  return it == datasets_.end() ? nullptr : it->second.table;
}

uint64_t ModelManager::DataVersion(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(data_mutex_);
  auto it = datasets_.find(dataset);
  return it == datasets_.end() ? 0 : it->second.version;
}

bool ModelManager::Snapshot(const std::string& dataset,
                            std::shared_ptr<const Table>* table,
                            uint64_t* version, std::string* error) const {
  std::lock_guard<std::mutex> lock(data_mutex_);
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    if (error != nullptr) *error = "unknown dataset \"" + dataset + "\"";
    return false;
  }
  *table = it->second.table;
  *version = it->second.version;
  return true;
}

std::shared_ptr<const ServedModel> ModelManager::BuildModel(
    const std::string& dataset, const std::string& estimator,
    const std::shared_ptr<const Table>& table, uint64_t version,
    bool is_refresh, std::string* error, const CancellationToken* cancel) {
  const uint64_t seed = TrainSeedForVersion(options_.train_seed, version);
  auto model = std::make_shared<ServedModel>();
  model->data_version = version;
  model->trained_rows = table->num_rows();
  Timer timer;

  std::unique_ptr<CardinalityEstimator> instance;
  try {
    instance = options_.factory(estimator);
  } catch (const std::exception& e) {
    if (error != nullptr)
      *error = std::string("estimator construction failed: ") + e.what();
    return nullptr;
  }

  // Version-0 cold path: prefer a persisted model over training. The store
  // (when configured) supersedes the flat model_dir: its Get runs the
  // checksum-verified recovery chain, so the bytes handed back are the last
  // committed generation, never a torn or bit-rotted record.
  bool loaded = false;
  const std::string path = options_.model_dir.empty()
                               ? std::string()
                               : ModelPath(dataset, estimator);
  if (!is_refresh && version == 0) {
    if (options_.store != nullptr) {
      std::string bytes;
      if (options_.store->Get(dataset, estimator, &bytes)) {
        const ModelLoadResult result =
            LoadEstimatorBytes(instance.get(), bytes);
        if (result.ok()) {
          loaded = true;
        } else {
          // The instance may hold partially deserialized state — poisoned.
          // Discard it and fall through to a clean cold train.
          {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            if (result.kind == FailureKind::kCorruptModel)
              ++counters_.corrupt_loads;
          }
          try {
            instance = options_.factory(estimator);
          } catch (const std::exception& e) {
            if (error != nullptr)
              *error = std::string("estimator construction failed: ") +
                       e.what();
            return nullptr;
          }
        }
      }
    } else if (!path.empty() && FileExists(path) &&
               LoadEstimator(instance.get(), path)) {
      loaded = true;
    }
  }

  if (loaded) {
    model->estimator = std::move(instance);
    model->source = "loaded";
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.persisted_loads;
    }
  } else {
    try {
      TrainContext context;
      context.seed = seed;
      context.cancellation = cancel;
      Workload training;
      if (instance->IsQueryDriven()) {
        training =
            GenerateWorkload(*table, options_.train_query_count, seed);
        context.training_workload = &training;
      }
      instance->Train(*table, context);
    } catch (const std::exception& e) {
      if (error != nullptr)
        *error = std::string("train failed: ") + e.what();
      std::lock_guard<std::mutex> lock(counters_mutex_);
      if (is_refresh)
        ++counters_.refresh_failures;
      else
        ++counters_.train_failures;
      return nullptr;
    }
    model->estimator = std::move(instance);
    model->source = is_refresh ? "refreshed" : "trained";
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      if (is_refresh)
        ++counters_.refreshes;
      else
        ++counters_.cold_trains;
    }
    if (options_.store == nullptr) {
      // Legacy flat-file path: save the freshly trained base model inline
      // so the next process can skip training. The counting probe keeps
      // the capability check cheap for estimators that refuse persistence.
      if (!is_refresh && version == 0 && !path.empty() &&
          SupportsPersistence(*model->estimator) &&
          SaveEstimator(*model->estimator, path)) {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.model_saves;
      }
    }
  }

  // Build the packed/quantized inference-weight forms before publication:
  // the model is still private to this thread here, so packing cannot race
  // with inference, and every request served from this ServedModel runs on
  // the packed fast path (fp32 packed agrees with the unpacked fast kernels
  // to summation-order rounding, the same class as reference-vs-fast;
  // ml/kernels_simd.h).
  model->estimator->PackForServing();
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.packed_models;
  }

  model->thread_safe = model->estimator->ThreadSafeEstimates();
  model->train_seconds = timer.ElapsedSeconds();

  // Store-backed deployments move write-back off the serving thread: queue
  // the trained model; the MaintenanceWorker serializes and commits it with
  // bounded retries. Refreshes enqueue too, so the store tracks the newest
  // trained state across data versions.
  if (!loaded && options_.store != nullptr &&
      SupportsPersistence(*model->estimator)) {
    {
      std::lock_guard<std::mutex> lock(saves_mutex_);
      pending_saves_.push_back(PendingSave{dataset, estimator, model});
    }
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.saves_enqueued;
  }
  return model;
}

bool ModelManager::RefreshModelNow(const std::string& dataset,
                                   const std::string& estimator,
                                   const CancellationToken* cancel,
                                   std::string* error) {
  std::shared_ptr<const Table> table;
  uint64_t version = 0;
  if (!Snapshot(dataset, &table, &version, error)) return false;

  const std::string key = ModelKey(dataset, estimator);
  {
    std::lock_guard<std::mutex> lock(models_mutex_);
    auto it = models_.find(key);
    if (it == models_.end() || !it->second.ready || it->second.refreshing ||
        it->second.model->data_version >= version) {
      if (error != nullptr) *error = "nothing to refresh";
      return false;
    }
    it->second.refreshing = true;
    ++active_refreshes_;
  }

  std::shared_ptr<const ServedModel> fresh = BuildModel(
      dataset, estimator, table, version, /*is_refresh=*/true, error, cancel);
  const bool ok = fresh != nullptr;
  {
    std::lock_guard<std::mutex> lock(models_mutex_);
    auto it = models_.find(key);
    if (it != models_.end()) {
      it->second.refreshing = false;
      if (ok) it->second.model = std::move(fresh);
    }
    --active_refreshes_;
  }
  refresh_cv_.notify_all();
  return ok;
}

std::vector<PendingSave> ModelManager::TakePendingSaves() {
  std::lock_guard<std::mutex> lock(saves_mutex_);
  std::vector<PendingSave> taken;
  taken.swap(pending_saves_);
  return taken;
}

std::vector<LoadedModelInfo> ModelManager::LoadedModels() const {
  std::lock_guard<std::mutex> lock(models_mutex_);
  std::vector<LoadedModelInfo> infos;
  for (const auto& [key, entry] : models_) {
    if (!entry.ready) continue;
    const size_t sep = key.find('\x1f');
    LoadedModelInfo info;
    info.dataset = key.substr(0, sep);
    info.estimator = key.substr(sep + 1);
    info.data_version = entry.model->data_version;
    info.refreshing = entry.refreshing;
    infos.push_back(std::move(info));
  }
  return infos;
}

std::shared_ptr<const ServedModel> ModelManager::GetModel(
    const std::string& dataset, const std::string& estimator,
    std::string* error) {
  const std::string key = ModelKey(dataset, estimator);
  {
    std::unique_lock<std::mutex> lock(models_mutex_);
    for (;;) {
      auto it = models_.find(key);
      if (it == models_.end()) {
        models_[key] = ModelEntry{};  // claim the single-flight slot.
        break;
      }
      if (it->second.ready) return it->second.model;
      {
        std::lock_guard<std::mutex> counters_lock(counters_mutex_);
        ++counters_.single_flight_waits;
      }
      models_cv_.wait(lock);
    }
  }

  // This thread owns the load; everyone else is parked on models_cv_.
  std::shared_ptr<const Table> table;
  uint64_t version = 0;
  std::shared_ptr<const ServedModel> model;
  std::string build_error;
  if (Snapshot(dataset, &table, &version, &build_error)) {
    model = BuildModel(dataset, estimator, table, version,
                       /*is_refresh=*/false, &build_error);
  }

  {
    std::lock_guard<std::mutex> lock(models_mutex_);
    if (model != nullptr) {
      models_[key].ready = true;
      models_[key].model = model;
    } else {
      models_.erase(key);  // forget the failure so the next request retries.
    }
  }
  models_cv_.notify_all();
  if (model == nullptr && error != nullptr) *error = build_error;
  return model;
}

uint64_t ModelManager::ApplyUpdate(const std::string& dataset, double fraction,
                                   uint64_t seed) {
  // Build the appended table outside the lock (it scans the whole table),
  // then install it atomically.
  std::shared_ptr<const Table> base;
  uint64_t version = 0;
  if (!Snapshot(dataset, &base, &version, nullptr)) return 0;
  Table updated = AppendCorrelatedUpdate(*base, fraction, seed);
  auto shared = std::make_shared<const Table>(std::move(updated));

  std::lock_guard<std::mutex> lock(data_mutex_);
  DatasetState& state = datasets_[dataset];
  state.table = std::move(shared);
  return ++state.version;
}

size_t ModelManager::RefreshModelsAsync(const std::string& dataset) {
  std::shared_ptr<const Table> table;
  uint64_t version = 0;
  if (!Snapshot(dataset, &table, &version, nullptr)) return 0;

  const std::string prefix = dataset + '\x1f';
  size_t started = 0;
  std::lock_guard<std::mutex> lock(models_mutex_);
  for (auto& [key, entry] : models_) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    if (!entry.ready || entry.refreshing) continue;
    if (entry.model->data_version >= version) continue;
    entry.refreshing = true;
    ++active_refreshes_;
    ++started;
    const std::string estimator = key.substr(prefix.size());
    refresh_threads_.emplace_back([this, dataset, estimator, key, table,
                                   version] {
      std::string error;
      std::shared_ptr<const ServedModel> fresh = BuildModel(
          dataset, estimator, table, version, /*is_refresh=*/true, &error);
      {
        std::lock_guard<std::mutex> swap_lock(models_mutex_);
        auto it = models_.find(key);
        if (it != models_.end()) {
          it->second.refreshing = false;
          // On failure the stale model keeps serving (already counted as a
          // refresh_failure by BuildModel).
          if (fresh != nullptr) it->second.model = std::move(fresh);
        }
        --active_refreshes_;
      }
      refresh_cv_.notify_all();
    });
  }
  return started;
}

void ModelManager::WaitForRefreshes() {
  std::vector<std::thread> done;
  {
    std::unique_lock<std::mutex> lock(models_mutex_);
    refresh_cv_.wait(lock, [this] { return active_refreshes_ == 0; });
    done.swap(refresh_threads_);
  }
  // Every swapped-out thread has published its result (active_refreshes_
  // hit zero under the lock); joining just reaps the exiting threads.
  for (std::thread& t : done)
    if (t.joinable()) t.join();
}

void ModelManager::Evict(const std::string& dataset,
                         const std::string& estimator) {
  const std::string key = ModelKey(dataset, estimator);
  std::lock_guard<std::mutex> lock(models_mutex_);
  auto it = models_.find(key);
  // Entries mid-load or mid-refresh are owned by their worker; evicting
  // them would strand the single-flight waiters.
  if (it == models_.end() || !it->second.ready || it->second.refreshing)
    return;
  models_.erase(it);
  std::lock_guard<std::mutex> counters_lock(counters_mutex_);
  ++counters_.evictions;
}

ManagerCounters ModelManager::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

}  // namespace arecel::serve
