#ifndef ARECEL_FEEDBACK_HUB_H_
#define ARECEL_FEEDBACK_HUB_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "feedback/online_model.h"
#include "feedback/truth_worker.h"

namespace arecel::feedback {

struct FeedbackHubStats {
  TruthWorkerStats worker;          // includes the truth memo's hits.
  FeedbackModelStats models;        // aggregated over all residual models.
  uint64_t corrections_applied = 0; // Correct() calls that moved an estimate.
  uint64_t corrections_passthrough = 0;  // no learned subspace; base kept.
  uint64_t cache_hit_jobs = 0;      // truth jobs born from cache hits.
  uint64_t stale_jobs = 0;          // truths below the version floor, dropped.
};

// The serving-side feedback loop: one residual OnlineSubspaceModel per
// (dataset, estimator) pair, fed asynchronously by a TruthWorker. The
// residual target is log(truth / base-estimate) with a half-tuple
// selectivity floor, so Correct() multiplies the base estimate by the
// learned exp(residual) — an estimator that keeps over-estimating a
// subspace gets pulled down toward the executed truth, per-subspace, like
// AQO's learn_sample over fss_hash spaces.
//
// Version discipline: truth jobs carry the data version of the table
// snapshot they are labelled on; InvalidateDataset(dataset, new_version) —
// called from the §5.1 append-update path — drops every entry learned under
// older versions and raises the dataset's version floor to new_version. A
// job still in flight on the old snapshot when the update lands carries an
// older version; LearnTruth drops it (counted as stale_jobs) instead of
// learning it after the invalidation, so stale truths never correct fresh
// models. Jobs with a `deliver` override are not subject to the floor: they
// teach the model instance that served them, which the update's refresh
// replaces.
class FeedbackHub {
 public:
  explicit FeedbackHub(FeedbackOptions options = FeedbackOptionsFromEnv(),
                       size_t queue_capacity = 1024);
  ~FeedbackHub();

  FeedbackHub(const FeedbackHub&) = delete;
  FeedbackHub& operator=(const FeedbackHub&) = delete;

  // Applies the learned residual for the query's subspace to
  // `base_selectivity`. Returns the base unchanged when nothing has been
  // learned for this (dataset, estimator, subspace) yet. `rows` sets the
  // half-tuple floor that keeps the log ratio finite.
  double Correct(const std::string& dataset, const std::string& estimator,
                 const Query& query, double base_selectivity,
                 size_t rows) const;

  // Queues an executed query for asynchronous exact labeling. Best-effort:
  // false means the queue was full and the job was dropped.
  bool EnqueueTruth(TruthJob job);

  // Folds one labeled truth into the residual model — the worker callback,
  // also callable directly for deterministic tests. Jobs with a `deliver`
  // override are handed off instead (see TruthJob); jobs below their
  // dataset's version floor are dropped.
  void LearnTruth(const TruthJob& job, double truth);

  // Drops feedback learned under data versions older than `min_version`
  // for every estimator serving `dataset`, and refuses such truths from now
  // on. Returns entries dropped.
  size_t InvalidateDataset(const std::string& dataset, uint64_t min_version);

  // Forgets everything learned for `dataset` and lowers its version floor
  // back to 0: the dataset was registered again, and its versions restart.
  void ResetDataset(const std::string& dataset);

  // Blocks until all queued truth jobs have been learned.
  void Drain();

  FeedbackHubStats Stats() const;
  size_t SizeBytes() const;
  const FeedbackOptions& options() const { return options_; }

 private:
  using EstimatorModels =
      std::map<std::string, std::unique_ptr<OnlineSubspaceModel>>;

  // Null when no truth has been learned for the pair yet. Models are never
  // erased, so the pointer stays valid after the lock is released.
  OnlineSubspaceModel* FindModel(const std::string& dataset,
                                 const std::string& estimator) const;
  std::vector<const OnlineSubspaceModel*> AllModels() const;

  FeedbackOptions options_;

  mutable std::mutex mutex_;  // guards models_.
  std::map<std::string, EstimatorModels> models_;  // dataset -> estimator.

  // Serializes LearnTruth with InvalidateDataset, so a truth is either
  // learned before an invalidation (and dropped by it) or checked against
  // the floor it raised. Neither Correct() nor the serving path takes it.
  std::mutex learn_mutex_;
  std::map<std::string, uint64_t> version_floors_;

  mutable std::atomic<uint64_t> corrections_applied_{0};
  mutable std::atomic<uint64_t> corrections_passthrough_{0};
  std::atomic<uint64_t> cache_hit_jobs_{0};
  std::atomic<uint64_t> stale_jobs_{0};

  std::unique_ptr<TruthWorker> worker_;  // last member: stops before maps die.
};

}  // namespace arecel::feedback

#endif  // ARECEL_FEEDBACK_HUB_H_
