#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>

#include "ml/kernels.h"
#include "robustness/guard.h"
#include "store/maintenance_worker.h"
#include "store/model_store.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace arecel::serve {

namespace {

constexpr size_t kLatencyWindowSize = 4096;

// Below this batch size the dispatch threads cost more than they save.
constexpr size_t kMinQueriesPerThread = 8;

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return (end == value) ? fallback : parsed;
}

}  // namespace

ServeOptions ServeOptionsFromEnv() {
  ServeOptions options;
  const double cache_mb = EnvDouble("ARECEL_SERVE_CACHE_MB", 64.0);
  options.cache_bytes =
      cache_mb <= 0 ? 0 : static_cast<size_t>(cache_mb * (1 << 20));
  options.cache_enabled = options.cache_bytes > 0;
  options.dispatch_threads =
      static_cast<int>(EnvDouble("ARECEL_SERVE_THREADS", 0));
  options.robust = robust::RobustOptionsFromEnv();
  options.feedback_enabled = EnvDouble("ARECEL_FEEDBACK", 0.0) > 0;
  const double queue = EnvDouble("ARECEL_FEEDBACK_QUEUE", 1024.0);
  options.feedback_queue = queue <= 0 ? 1 : static_cast<size_t>(queue);
  options.feedback = feedback::FeedbackOptionsFromEnv();
  store::StoreOptions store_options = store::StoreOptions::FromEnv();
  if (!store_options.root_dir.empty())
    options.manager.store =
        std::make_shared<store::ModelStore>(std::move(store_options));
  return options;
}

EstimatorServer::EstimatorServer(ServeOptions options)
    : options_(std::move(options)),
      manager_(options_.manager),
      cache_(options_.cache_bytes, options_.cache_shards),
      cache_enabled_(options_.cache_enabled) {
  if (options_.dispatch_threads <= 0)
    options_.dispatch_threads = ParallelWorkerCount();
  if (options_.feedback_enabled)
    feedback_ = std::make_unique<feedback::FeedbackHub>(
        options_.feedback, options_.feedback_queue);
  if (options_.manager.store != nullptr) {
    // Non-owning alias: manager_ is a value member and maintenance_ is
    // declared after it, so the worker is always stopped and destroyed
    // before the manager it points at.
    std::shared_ptr<ModelManager> manager_alias(&manager_,
                                                [](ModelManager*) {});
    maintenance_ = std::make_unique<store::MaintenanceWorker>(
        std::move(manager_alias), options_.manager.store,
        store::MaintenanceOptions::FromEnv());
    maintenance_->Start();
  }
}

EstimatorServer::~EstimatorServer() {
  if (maintenance_ != nullptr) maintenance_->Stop();
}

void EstimatorServer::RegisterDataset(const std::string& name, Table table) {
  manager_.RegisterDataset(name, std::move(table));
  if (feedback_ != nullptr) feedback_->ResetDataset(name);
}

bool EstimatorServer::RunInference(
    const std::string& dataset, const std::string& estimator,
    const std::shared_ptr<const ServedModel>& model, const Query& query,
    double* selectivity, EstimateResponse* response) {
  const double deadline = options_.robust.query_deadline_seconds;
  if (deadline <= 0) {
    try {
      if (model->thread_safe) {
        *selectivity = model->estimator->EstimateSelectivity(query);
      } else {
        std::lock_guard<std::mutex> lock(model->inference_mutex);
        *selectivity = model->estimator->EstimateSelectivity(query);
      }
      return true;
    } catch (const std::exception& e) {
      response->failure = FailureKind::kEstimateThrew;
      response->detail = e.what();
      ++estimate_errors_;
      return false;
    }
  }

  // Guarded path: the closure owns the model (shared_ptr by value) and a
  // private copy of the query, per the leak-on-hang contract — an abandoned
  // worker may outlive this request, never this process' model.
  auto result = std::make_shared<double>(0.0);
  robust::GuardKinds kinds;
  kinds.on_timeout = FailureKind::kEstimateTimeout;
  kinds.on_throw = FailureKind::kEstimateThrew;
  kinds.on_cancel = FailureKind::kEstimateThrew;
  robust::GuardResult guard = robust::RunGuarded(
      [model, query, result] {
        if (model->thread_safe) {
          *result = model->estimator->EstimateSelectivity(query);
        } else {
          std::lock_guard<std::mutex> lock(model->inference_mutex);
          *result = model->estimator->EstimateSelectivity(query);
        }
      },
      deadline, kinds);
  if (guard.ok()) {
    *selectivity = *result;
    return true;
  }
  response->failure = guard.kind;
  response->detail = guard.detail;
  if (guard.kind == FailureKind::kEstimateTimeout) {
    ++deadline_exceeded_;
    // A timed-out worker on a serialized model may still hold the model's
    // inference mutex; retire the entry so later requests retrain a fresh
    // instance instead of queueing behind a hung lock.
    if (!model->thread_safe) manager_.Evict(dataset, estimator);
  } else {
    ++estimate_errors_;
  }
  return false;
}

EstimateResponse EstimatorServer::EstimateWithModel(
    const std::string& dataset, const std::string& estimator,
    const std::shared_ptr<const ServedModel>& model, const Query& query) {
  Timer timer;
  EstimateResponse response;
  response.data_version = model->data_version;
  ++requests_;

  const bool use_cache = cache_enabled_.load() && cache_.capacity_bytes() > 0;
  std::string key;
  if (use_cache) {
    key = EstimateCacheKey(dataset, estimator, model->data_version, query);
    double cached = 0.0;
    if (cache_.Lookup(key, &cached)) {
      response.ok = true;
      response.cache_hit = true;
      // The cache stores the *base* estimate; corrections apply after
      // lookup so the hit path and the miss path learn and serve the same
      // way. A cache hit is still real traffic — it enqueues a truth job
      // (the latent gap this layer used to have: hits bypassed learning).
      response.selectivity = cached;
      if (feedback_ != nullptr) {
        EnqueueFeedback(dataset, estimator, model, query, cached,
                        /*from_cache_hit=*/true);
        response.selectivity = feedback_->Correct(
            dataset, estimator, query, cached, model->trained_rows);
      }
      response.cardinality =
          response.selectivity * static_cast<double>(model->trained_rows);
      response.latency_ms = timer.ElapsedMillis();
      RecordLatency(dataset, estimator, response.latency_ms);
      return response;
    }
  }

  double selectivity = 0.0;
  if (RunInference(dataset, estimator, model, query, &selectivity,
                   &response)) {
    if (!std::isfinite(selectivity) || selectivity < 0.0) {
      response.failure = FailureKind::kNonFiniteEstimate;
      response.detail = "selectivity " + std::to_string(selectivity);
      ++estimate_errors_;
    } else {
      // Clamp like EstimateCardinality does; the cached value is the
      // clamped one, so a hit replays exactly what was served.
      selectivity = std::min(selectivity, 1.0);
      response.ok = true;
      response.selectivity = selectivity;
      if (use_cache) cache_.Insert(key, selectivity);
      if (feedback_ != nullptr) {
        EnqueueFeedback(dataset, estimator, model, query, selectivity,
                        /*from_cache_hit=*/false);
        response.selectivity = feedback_->Correct(
            dataset, estimator, query, selectivity, model->trained_rows);
      }
      response.cardinality =
          response.selectivity * static_cast<double>(model->trained_rows);
    }
  }
  response.latency_ms = timer.ElapsedMillis();
  RecordLatency(dataset, estimator, response.latency_ms);
  return response;
}

EstimateResponse EstimatorServer::Estimate(const std::string& dataset,
                                           const std::string& estimator,
                                           const Query& query) {
  std::string error;
  std::shared_ptr<const ServedModel> model =
      manager_.GetModel(dataset, estimator, &error);
  if (model == nullptr) {
    ++requests_;
    ++model_failures_;
    EstimateResponse response;
    response.failure = FailureKind::kTrainThrew;
    response.detail = error;
    return response;
  }
  return EstimateWithModel(dataset, estimator, model, query);
}

std::vector<EstimateResponse> EstimatorServer::EstimateBatch(
    const std::string& dataset, const std::string& estimator,
    const std::vector<Query>& queries) {
  ++batches_;
  std::vector<EstimateResponse> responses(queries.size());
  if (queries.empty()) return responses;

  std::string error;
  std::shared_ptr<const ServedModel> model =
      manager_.GetModel(dataset, estimator, &error);
  if (model == nullptr) {
    requests_ += queries.size();
    model_failures_ += queries.size();
    for (EstimateResponse& response : responses) {
      response.failure = FailureKind::kTrainThrew;
      response.detail = error;
    }
    return responses;
  }

  // Serialized-inference models gain nothing from fan-out: every request
  // would queue on the inference mutex while paying thread startup. Small
  // batches likewise run inline.
  const size_t want_threads = std::min<size_t>(
      static_cast<size_t>(options_.dispatch_threads),
      queries.size() / kMinQueriesPerThread);
  if (!model->thread_safe || want_threads <= 1) {
    for (size_t i = 0; i < queries.size(); ++i)
      responses[i] = EstimateWithModel(dataset, estimator, model, queries[i]);
    return responses;
  }

  std::vector<std::thread> workers;
  workers.reserve(want_threads);
  const size_t chunk = (queries.size() + want_threads - 1) / want_threads;
  for (size_t t = 0; t < want_threads; ++t) {
    const size_t begin = t * chunk;
    const size_t end = std::min(queries.size(), begin + chunk);
    if (begin >= end) break;
    workers.emplace_back([this, &dataset, &estimator, &model, &queries,
                          &responses, begin, end] {
      for (size_t i = begin; i < end; ++i)
        responses[i] =
            EstimateWithModel(dataset, estimator, model, queries[i]);
    });
  }
  for (std::thread& worker : workers) worker.join();
  return responses;
}

uint64_t EstimatorServer::Update(const std::string& dataset, uint64_t seed) {
  const uint64_t version =
      manager_.ApplyUpdate(dataset, options_.update_fraction, seed);
  if (version == 0) return 0;
  ++updates_;
  // Order matters: invalidate before kicking refreshes so no refreshed
  // model can observe a cache still holding pre-update keys. (Stale-model
  // requests racing this call may re-insert entries under the OLD version
  // prefix; those keys are unreachable once their model refreshes and age
  // out via LRU — they can never serve a wrong answer because the version
  // is part of the key.)
  cache_.InvalidatePrefix(DatasetKeyPrefix(dataset));
  // Residuals learned over the pre-update data are stale the same way the
  // cache entries were: drop everything tagged with an older version. This
  // also raises the dataset's version floor, so truth jobs still in flight
  // on the old snapshot are dropped when the worker reaches them rather
  // than learned after the invalidation. Jobs served by the stale model
  // until its refresh lands are labelled on the new snapshot, carry its
  // version and still learn.
  if (feedback_ != nullptr) feedback_->InvalidateDataset(dataset, version);
  manager_.RefreshModelsAsync(dataset);
  return version;
}

void EstimatorServer::EnqueueFeedback(
    const std::string& dataset, const std::string& estimator,
    const std::shared_ptr<const ServedModel>& model, const Query& query,
    double base_selectivity, bool from_cache_hit) {
  feedback::TruthJob job;
  job.dataset = dataset;
  job.estimator = estimator;
  job.query = query;
  job.base_selectivity = base_selectivity;
  // The version of the snapshot the truth is labelled on, read with it in
  // one step; the model may be older while its refresh is in flight.
  job.snapshot = manager_.TableSnapshot(dataset, &job.version);
  job.from_cache_hit = from_cache_hit;
  // Self-adapting estimators take the truth directly; everything else
  // learns a hub residual that Correct() applies on the way out.
  if (dynamic_cast<FeedbackSink*>(model->estimator.get()) != nullptr) {
    const bool needs_lock = !model->thread_safe;
    // A sink changes its own answers when it learns, so the cached base
    // estimate for this exact query is stale the moment its truth lands —
    // drop it and let the next repeat re-infer. (Hub-corrected estimators
    // don't need this: their cached base stays valid and Correct() applies
    // the fresh residual after lookup.) Safe to touch cache_ from the
    // worker thread: the hub joins its worker before cache_ is destroyed.
    std::string cache_key;
    if (cache_.capacity_bytes() > 0)
      cache_key =
          EstimateCacheKey(dataset, estimator, model->data_version, query);
    job.deliver = [this, model, needs_lock,
                   cache_key](const feedback::TruthJob& done, double truth) {
      auto* sink = dynamic_cast<FeedbackSink*>(model->estimator.get());
      if (sink == nullptr) return;
      if (needs_lock) {
        std::lock_guard<std::mutex> lock(model->inference_mutex);
        sink->ObserveTruth(done.query, truth);
      } else {
        sink->ObserveTruth(done.query, truth);
      }
      if (!cache_key.empty()) cache_.InvalidatePrefix(cache_key);
    };
  }
  feedback_->EnqueueTruth(std::move(job));
}

void EstimatorServer::RecordLatency(const std::string& dataset,
                                    const std::string& estimator, double ms) {
  std::lock_guard<std::mutex> lock(latency_mutex_);
  LatencyWindow& window = latencies_[dataset][estimator];
  ++window.requests;
  if (window.values.size() < kLatencyWindowSize) {
    window.values.push_back(ms);
  } else {
    window.values[window.next] = ms;
    window.next = (window.next + 1) % kLatencyWindowSize;
    window.full = true;
  }
}

ServerStats EstimatorServer::Stats() const {
  ServerStats stats;
  stats.requests = requests_.load();
  stats.batches = batches_.load();
  stats.deadline_exceeded = deadline_exceeded_.load();
  stats.estimate_errors = estimate_errors_.load();
  stats.model_failures = model_failures_.load();
  stats.updates = updates_.load();
  stats.cache = cache_.Stats();
  stats.manager = manager_.counters();
  stats.feedback_enabled = feedback_ != nullptr;
  if (feedback_ != nullptr) stats.feedback = feedback_->Stats();
  stats.store_enabled = options_.manager.store != nullptr;
  if (stats.store_enabled) stats.store = options_.manager.store->stats();
  stats.ml_backend = MlKernelBackendName(ActiveMlKernelBackend());
  stats.ml_simd = MlKernelSimdName();
  stats.ml_cpu_flags = MlCpuFeatureFlags();
  std::lock_guard<std::mutex> lock(latency_mutex_);
  for (const auto& [dataset, windows] : latencies_) {
    for (const auto& [estimator, window] : windows) {
      ModelLatencyStats entry;
      entry.model = dataset + "/" + estimator;
      entry.requests = window.requests;
      if (!window.values.empty()) {
        entry.p50_ms = Percentile(window.values, 50.0);
        entry.p90_ms = Percentile(window.values, 90.0);
        entry.p99_ms = Percentile(window.values, 99.0);
        entry.max_ms =
            *std::max_element(window.values.begin(), window.values.end());
      }
      stats.latencies.push_back(std::move(entry));
    }
  }
  return stats;
}

}  // namespace arecel::serve
