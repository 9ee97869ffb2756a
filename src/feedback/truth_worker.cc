#include "feedback/truth_worker.h"

#include <algorithm>
#include <utility>

#include "scan/block_scan.h"

namespace arecel::feedback {

namespace {

// The memo key: the query's predicates as raw bytes, in the query's order.
// Byte equality implies the scanner sees the same query; two spellings of
// one query (reordered, -0.0) merely miss.
void MemoKey(const Query& query, std::string* key) {
  key->clear();
  for (const Predicate& p : query.predicates) {
    const int32_t column = p.column;
    key->append(reinterpret_cast<const char*>(&column), sizeof(column));
    key->append(reinterpret_cast<const char*>(&p.lo), sizeof(p.lo));
    key->append(reinterpret_cast<const char*>(&p.hi), sizeof(p.hi));
  }
}

}  // namespace

TruthWorker::TruthWorker(Callback callback, size_t queue_capacity)
    : callback_(std::move(callback)),
      queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity),
      high_water_(std::clamp<size_t>(queue_capacity_ / 2, 1,
                                     kBatchHighWater)) {
  thread_ = std::thread([this] { Loop(); });
}

TruthWorker::~TruthWorker() { Stop(); }

bool TruthWorker::Enqueue(TruthJob job) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || queue_.size() >= queue_capacity_) {
      ++stats_.dropped;
      return false;
    }
    queue_.push_back(std::move(job));
    ++stats_.enqueued;
    wake = queue_.size() == 1 || queue_.size() == high_water_;
  }
  if (wake) work_cv_.notify_one();
  return true;
}

void TruthWorker::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  ++drain_waiters_;
  work_cv_.notify_one();
  idle_cv_.wait(lock, [this] {
    return (queue_.empty() && in_flight_ == 0) || stopping_;
  });
  --drain_waiters_;
}

void TruthWorker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

TruthWorkerStats TruthWorker::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TruthWorkerStats stats = stats_;
  stats.pending = queue_.size() + in_flight_;
  return stats;
}

double TruthWorker::Label(const TruthJob& job, bool* memo_hit) {
  *memo_hit = false;
  if (job.snapshot == nullptr) return 0.0;
  Slot& slot = slots_[job.dataset];
  if (job.snapshot != slot.snapshot) {
    slot.scanner.reset();  // before the table it points into can go.
    slot.snapshot = job.snapshot;
    slot.scanner = std::make_unique<scan::BlockScanner>(*slot.snapshot);
    slot.memo.clear();
  }
  MemoKey(job.query, &memo_key_);
  if (auto it = slot.memo.find(memo_key_); it != slot.memo.end()) {
    *memo_hit = true;
    return it->second;
  }
  const double truth = slot.scanner->Selectivity(job.query);
  if (slot.memo.size() >= kMemoCapacity) slot.memo.clear();
  slot.memo.emplace(memo_key_, truth);
  return truth;
}

void TruthWorker::Loop() {
  std::deque<TruthJob> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      work_cv_.wait_for(lock, kBatchDelay, [this] {
        return stopping_ || drain_waiters_ > 0 ||
               queue_.size() >= high_water_;
      });
      if (stopping_) return;
      batch.swap(queue_);
      in_flight_ = batch.size();
    }
    uint64_t memo_hits = 0;
    for (const TruthJob& job : batch) {
      if (stopping_) return;
      bool memo_hit = false;
      const double truth = Label(job, &memo_hit);
      memo_hits += memo_hit ? 1 : 0;
      if (callback_) callback_(job, truth);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.completed += batch.size();
      stats_.memo_hits += memo_hits;
      in_flight_ = 0;
    }
    batch.clear();
    idle_cv_.notify_all();
  }
}

}  // namespace arecel::feedback
