#ifndef ARECEL_FEEDBACK_TRUTH_WORKER_H_
#define ARECEL_FEEDBACK_TRUTH_WORKER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "data/table.h"
#include "workload/query.h"

namespace arecel::scan {
class BlockScanner;
}  // namespace arecel::scan

namespace arecel::feedback {

// One executed query awaiting its exact ground truth. The job carries a
// shared snapshot of the table it ran against plus that snapshot's data
// version, so a concurrent append-update cannot make the worker label a
// query against the wrong data: the truth is computed on the captured
// snapshot and tagged with its version, and the hub's per-dataset version
// floor drops it if it raced the update.
struct TruthJob {
  std::string dataset;
  std::string estimator;
  Query query;
  double base_selectivity = 0.0;  // what the estimator answered.
  std::shared_ptr<const Table> snapshot;
  uint64_t version = 0;
  bool from_cache_hit = false;  // satellite: cached answers still learn.

  // When set, the hub delivers the labeled truth here INSTEAD of learning a
  // residual: the serving layer binds this to FeedbackSink::ObserveTruth for
  // estimators that adapt in-model (feedback-knn, feedback-corrected), so a
  // self-correcting model is never double-corrected by the hub.
  std::function<void(const TruthJob&, double truth)> deliver;
};

struct TruthWorkerStats {
  uint64_t enqueued = 0;
  uint64_t completed = 0;
  uint64_t dropped = 0;    // queue-full rejections (feedback is best-effort).
  uint64_t pending = 0;    // enqueued, not yet completed (queued or taken).
  uint64_t memo_hits = 0;  // completed jobs answered from the truth memo.
};

// Asynchronous ground-truth labeler: a single background thread labels
// jobs with their exact selectivity via the block-scan engine and hands
// (job, truth) to the callback, which is where the hub folds the
// observation into its online models. The callback runs once per job, in
// enqueue order. The queue is bounded; when full, new jobs are dropped and
// counted (feedback is a best-effort side channel that must never block
// serving).
//
// Per-dataset slots. The worker keeps one slot per dataset name: the table
// snapshot its jobs last ran against, a BlockScanner over it (building one
// costs ~110 ms on a 300k-row table) and a truth memo. A job whose snapshot
// differs from its slot's replaces that slot, so two datasets served side by
// side never rebuild each other's scanner. The slot's shared_ptr keeps the
// table the scanner points into alive.
//
// The truth memo. Serving traffic repeats: in a Zipf(1.0) stream about 90%
// of jobs re-label a (snapshot, query) pair already labeled. The memo maps
// a query's exact predicate bytes (column, lo, hi, in the query's order) to
// its truth, per slot. Snapshots are immutable, so a memoized truth is the
// count the scanner would return, bit for bit, and the memo is cleared
// whenever its slot's snapshot changes. It holds at most kMemoCapacity
// entries and is cleared when full.
//
// Batched handoff. Enqueue signals the worker only when the queue goes
// from empty to non-empty, or when it reaches the high-water mark. The
// worker then waits until a Drain() caller appears, the queue reaches the
// high-water mark, or kBatchDelay passes, and takes the whole queue under
// one lock. Measured on a 4-core VM, one closed-loop client on a 300k-row
// table with a 1,000-query Zipf pool, medians of 3-6 runs of 10 s:
//  - Drained every 256 requests (~1.3 ms apart), 5 ms / 512 served at
//    p50 4.2 us / p99 11.5 us. Taking the queue at once with no delay
//    served at p50 7.2 / p99 39 us: with memoized truths the worker then
//    labels mid-stream and contends with the serving thread for the queue
//    and model locks. A 1 ms / 256 cadence served at p99 24-28 us.
//  - Without the Drain() wake, every drain waits out the delay: 41k
//    requests/s against 126k.
//  - Never drained (a 4M-job queue), the delay neither helps nor hurts:
//    109k against 108k requests/s, p99 41 us either way.
//  - Never drained at the default 1,024-job queue, the cold-memo burst
//    (every first query of a version is a full count) drops 15-21% of
//    jobs with the delay, 10-22% without it, and 58-64% with the delay
//    but no high-water mark.
// The constants are that measurement, not settings.
class TruthWorker {
 public:
  using Callback = std::function<void(const TruthJob&, double truth)>;

  static constexpr size_t kMemoCapacity = 1 << 14;
  static constexpr size_t kBatchHighWater = 512;
  static constexpr std::chrono::milliseconds kBatchDelay{5};

  explicit TruthWorker(Callback callback, size_t queue_capacity = 1024);
  ~TruthWorker();

  TruthWorker(const TruthWorker&) = delete;
  TruthWorker& operator=(const TruthWorker&) = delete;

  // False when the queue is full or the worker is stopped (job dropped).
  bool Enqueue(TruthJob job);

  // Wakes the worker at once and blocks until every job enqueued so far
  // has been executed and its callback returned. Tests and benches use
  // this to make the asynchronous loop deterministic: enqueue, Drain(),
  // assert.
  void Drain();

  // Stops the thread after the current job; further Enqueues are dropped.
  void Stop();

  TruthWorkerStats Stats() const;

 private:
  struct Slot {
    std::shared_ptr<const Table> snapshot;
    std::unique_ptr<scan::BlockScanner> scanner;
    std::unordered_map<std::string, double> memo;
  };

  void Loop();
  // The job's exact selectivity, from its dataset's memo when present.
  double Label(const TruthJob& job, bool* memo_hit);

  Callback callback_;
  const size_t queue_capacity_;
  const size_t high_water_;  // min(kBatchHighWater, capacity / 2), >= 1.

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // signals the worker.
  std::condition_variable idle_cv_;   // signals Drain waiters.
  std::deque<TruthJob> queue_;
  size_t in_flight_ = 0;      // jobs of the taken batch not yet counted.
  size_t drain_waiters_ = 0;  // Drain() callers blocked on idle_cv_.
  std::atomic<bool> stopping_{false};  // written under mutex_.
  TruthWorkerStats stats_;

  // Worker thread only.
  std::unordered_map<std::string, Slot> slots_;
  std::string memo_key_;  // reused so a memo hit allocates nothing.

  std::thread thread_;
};

}  // namespace arecel::feedback

#endif  // ARECEL_FEEDBACK_TRUTH_WORKER_H_
