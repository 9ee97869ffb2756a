#include "feedback/hub.h"

#include <algorithm>
#include <cmath>

namespace arecel::feedback {

FeedbackHub::FeedbackHub(FeedbackOptions options, size_t queue_capacity)
    : options_(options) {
  worker_ = std::make_unique<TruthWorker>(
      [this](const TruthJob& job, double truth) { LearnTruth(job, truth); },
      queue_capacity);
}

FeedbackHub::~FeedbackHub() { worker_->Stop(); }

OnlineSubspaceModel* FeedbackHub::FindModel(
    const std::string& dataset, const std::string& estimator) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto models = models_.find(dataset);
  if (models == models_.end()) return nullptr;
  auto it = models->second.find(estimator);
  return it == models->second.end() ? nullptr : it->second.get();
}

double FeedbackHub::Correct(const std::string& dataset,
                            const std::string& estimator, const Query& query,
                            double base_selectivity, size_t rows) const {
  const OnlineSubspaceModel* model = FindModel(dataset, estimator);
  double residual = 0.0;
  if (model == nullptr || !model->Predict(query, &residual)) {
    corrections_passthrough_.fetch_add(1, std::memory_order_relaxed);
    return base_selectivity;
  }
  const double floor = SelectivityFloor(rows);
  corrections_applied_.fetch_add(1, std::memory_order_relaxed);
  return std::clamp(std::max(base_selectivity, floor) * std::exp(residual),
                    0.0, 1.0);
}

bool FeedbackHub::EnqueueTruth(TruthJob job) {
  if (job.from_cache_hit)
    cache_hit_jobs_.fetch_add(1, std::memory_order_relaxed);
  return worker_->Enqueue(std::move(job));
}

void FeedbackHub::LearnTruth(const TruthJob& job, double truth) {
  if (job.deliver) {
    job.deliver(job, truth);
    return;
  }
  std::lock_guard<std::mutex> learn_lock(learn_mutex_);
  auto floor_it = version_floors_.find(job.dataset);
  if (floor_it != version_floors_.end() && job.version < floor_it->second) {
    stale_jobs_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  OnlineSubspaceModel* model = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<OnlineSubspaceModel>& slot =
        models_[job.dataset][job.estimator];
    if (slot == nullptr)
      slot = std::make_unique<OnlineSubspaceModel>(options_);
    model = slot.get();
  }
  if (!model->bound()) {
    if (job.snapshot == nullptr) return;
    model->BindSchema(*job.snapshot);
  }
  const size_t rows = job.snapshot != nullptr ? job.snapshot->num_rows() : 0;
  const double floor = SelectivityFloor(rows);
  const double residual = std::log(std::max(truth, floor) /
                                   std::max(job.base_selectivity, floor));
  model->Observe(job.query, residual, job.version);
}

void FeedbackHub::ResetDataset(const std::string& dataset) {
  std::lock_guard<std::mutex> learn_lock(learn_mutex_);
  version_floors_.erase(dataset);
  std::lock_guard<std::mutex> lock(mutex_);
  auto models = models_.find(dataset);
  if (models == models_.end()) return;
  // Cleared, not erased: Correct() may hold a pointer to a model.
  for (const auto& [estimator, model] : models->second) model->Clear();
}

size_t FeedbackHub::InvalidateDataset(const std::string& dataset,
                                      uint64_t min_version) {
  std::lock_guard<std::mutex> learn_lock(learn_mutex_);
  uint64_t& floor = version_floors_[dataset];
  floor = std::max(floor, min_version);
  std::vector<OnlineSubspaceModel*> targets;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto models = models_.find(dataset);
    if (models != models_.end())
      for (const auto& [estimator, model] : models->second)
        targets.push_back(model.get());
  }
  size_t dropped = 0;
  for (OnlineSubspaceModel* model : targets)
    dropped += model->InvalidateOlderThan(min_version);
  return dropped;
}

void FeedbackHub::Drain() { worker_->Drain(); }

FeedbackHubStats FeedbackHub::Stats() const {
  FeedbackHubStats stats;
  stats.worker = worker_->Stats();
  stats.corrections_applied = corrections_applied_.load();
  stats.corrections_passthrough = corrections_passthrough_.load();
  stats.cache_hit_jobs = cache_hit_jobs_.load();
  stats.stale_jobs = stale_jobs_.load();
  for (const OnlineSubspaceModel* model : AllModels()) {
    const FeedbackModelStats m = model->Stats();
    stats.models.subspaces += m.subspaces;
    stats.models.entries += m.entries;
    stats.models.observed += m.observed;
    stats.models.predictions += m.predictions;
    stats.models.misses += m.misses;
    stats.models.evicted_entries += m.evicted_entries;
    stats.models.evicted_subspaces += m.evicted_subspaces;
    stats.models.invalidated += m.invalidated;
  }
  return stats;
}

std::vector<const OnlineSubspaceModel*> FeedbackHub::AllModels() const {
  std::vector<const OnlineSubspaceModel*> all;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [dataset, models] : models_)
    for (const auto& [estimator, model] : models) all.push_back(model.get());
  return all;
}

size_t FeedbackHub::SizeBytes() const {
  size_t bytes = sizeof(*this);
  for (const OnlineSubspaceModel* model : AllModels())
    bytes += model->SizeBytes();
  return bytes;
}

}  // namespace arecel::feedback
