#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/registry.h"
#include "data/datasets.h"
#include "scan/block_scan.h"
#include "serve/cache.h"
#include "serve/server.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace servebench {
namespace {

using arecel::Query;
using arecel::Table;
using arecel::Timer;
using arecel::serve::EstimateResponse;
using arecel::serve::EstimatorServer;
using Clock = std::chrono::steady_clock;

// Set-up and the §5.1 update are timed this many times per run and
// reported as medians: one model training varies by a third between runs
// on a shared machine.
constexpr int kSetupRepetitions = 3;
constexpr int kUpdateRepetitions = 3;
// The table, its updates and the scored probe are fixed, like the paper's
// datasets and test workloads: q-error then reads the same on every run and
// a change to an estimator moves it exactly. The seed drives the streams.
constexpr uint64_t kDataSeed = 20210801;
constexpr double kZipfExponent = 1.0;
// Requests pre-generated per phase of a Zipf stream; a long run cycles them.
constexpr size_t kRingRequests = 1 << 16;
// The Zipf ranking over the pool is re-drawn every this many requests. One
// ranking puts a handful of queries on top, and their cost alone would set
// a run's cost; re-drawing averages a run over many hot sets.
constexpr size_t kRankingRequests = 1024;
// qps and latency_p99_us are medians over consecutive groups of this many
// calls, so a short stall of the machine moves one group, not the run. A
// group holds whole drain cycles and at least ten calls beyond its p99.
constexpr size_t kGroupCalls = 1024;
// A traced run alternates blocks of this many requests with and without
// span recording, so both see the same cache and queue state; a block holds
// whole drain cycles and whole batches.
constexpr uint64_t kTraceBlockRequests = 256;
// A repeated query after the final drain, against its exact count
// (DESIGN §11: an exact repeat answers from its own remembered truth).
constexpr double kRepeatQErrorTolerance = 1.01;

struct Spec {
  std::string estimator;
  arecel::DatasetSpec table;
  size_t batch = 1;           // queries per Estimate/EstimateBatch call.
  size_t pool = 0;            // Zipf pool size; 0: every query distinct.
  bool feedback = false;      // online feedback loop on.
  size_t drain_every = 0;     // requests between DrainFeedback calls.
  size_t scored = 0;          // distinct queries scored, never streamed.
  double distinct_per_second = 0;  // distinct streams: queries generated.
};

Spec MakeSpec(const std::string& name, bool smoke) {
  Spec spec;
  if (name == "naru-distinct") {
    spec.estimator = "naru";
    spec.table = arecel::CensusSpec();
    // Naru trains on at most 20,000 rows per epoch; 10,000 rows halve its
    // training time, which a run pays six times.
    spec.table.rows = 10000;
    spec.scored = smoke ? 16 : 300;
    spec.distinct_per_second = 400;
  } else if (name == "mscn-zipf-batch") {
    spec.estimator = "mscn";
    spec.table = arecel::CensusSpec();
    // EstimateBatch starts a thread per 8 queries from 16 on; a batch of 8
    // runs inline. With 64, thread start-up set each run's qps and it
    // spread 98% between runs, so the fan-out is timed per layer only.
    spec.batch = 8;
    spec.pool = smoke ? 256 : 2000;
    spec.scored = smoke ? 256 : 2000;
  } else if (name == "dmv-feedback") {
    spec.estimator = "postgres";
    spec.table = arecel::DmvSpec();
    spec.pool = smoke ? 256 : 1000;
    spec.feedback = true;
    spec.drain_every = 256;
    spec.scored = smoke ? 64 : 2000;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  if (smoke) spec.table.rows = std::min<size_t>(spec.table.rows, 5000);
  return spec;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : arecel::Percentile(values, 50.0);
}

// q-error with both sides clamped to at least one row, as in the paper.
double QError(double estimated_rows, double actual_rows) {
  const double est = std::max(1.0, estimated_rows);
  const double act = std::max(1.0, actual_rows);
  return std::max(est, act) / std::min(est, act);
}

// Exact match counts of every query, by a loop over the table's rows with
// inclusive intervals, one column at a time. It shares no code with
// src/scan or Predicate::Matches: it is the reference the scan engine and
// the served answers are checked against.
std::vector<size_t> OracleCounts(const Table& table,
                                 const std::vector<Query>& queries) {
  std::vector<size_t> counts(queries.size(), 0);
  const size_t threads = std::clamp<size_t>(std::thread::hardware_concurrency(),
                                            1, 4);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<uint8_t> match(table.num_rows());
      for (size_t q = t; q < queries.size(); q += threads) {
        std::fill(match.begin(), match.end(), 1);
        for (const arecel::Predicate& p : queries[q].predicates) {
          const std::vector<double>& values =
              table.column(static_cast<size_t>(p.column)).values;
          for (size_t r = 0; r < match.size(); ++r)
            match[r] &= static_cast<uint8_t>((p.lo <= values[r]) &
                                             (values[r] <= p.hi));
        }
        size_t count = 0;
        for (uint8_t m : match) count += m;
        counts[q] = count;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return counts;
}

// Output checks of one run: the first few failures are kept for the report.
class Checks {
 public:
  void Fail(const std::string& what) {
    if (errors_.size() < 8) errors_.push_back(what);
    ++failures_;
  }
  bool ok() const { return failures_ == 0; }
  std::vector<std::string> errors() const {
    std::vector<std::string> out = errors_;
    if (failures_ > errors_.size())
      out.push_back(std::to_string(failures_ - errors_.size()) +
                    " more failed checks");
    return out;
  }

 private:
  std::vector<std::string> errors_;
  size_t failures_ = 0;
};

// Every query a run sends, addressed by id, and the calls that send them.
struct Calls {
  std::vector<std::vector<Query>> queries;
  std::vector<std::vector<uint32_t>> ids;
  size_t size() const { return queries.size(); }
  void Add(const std::vector<Query>& all, const std::vector<uint32_t>& call) {
    std::vector<Query> batch;
    for (uint32_t id : call) batch.push_back(all[id]);
    queries.push_back(std::move(batch));
    ids.push_back(call);
  }
};

struct Inputs {
  std::vector<Query> queries;  // the id space.
  std::vector<Query> scored;   // ids [0, size), scored once per version.
  Calls score;                 // the scored queries as calls.
  Calls stream[2];             // timed stream per phase.
  bool cycle = false;          // Zipf streams cycle their calls.
};

// Appends `count` queries to `out` that are distinct by canonical key from
// each other and from those already there.
void AddDistinctQueries(const Table& table, size_t count, uint64_t seed,
                        std::vector<Query>* out) {
  std::unordered_set<std::string> seen;
  for (const Query& q : *out)
    seen.insert(arecel::serve::CanonicalPredicateKey(q));
  const size_t target = out->size() + count;
  for (uint64_t round = 0; out->size() < target; ++round) {
    for (Query& q : arecel::GenerateQueries(table, count, DeriveSeed(seed, round))) {
      if (out->size() < target &&
          seen.insert(arecel::serve::CanonicalPredicateKey(q)).second)
        out->push_back(std::move(q));
    }
  }
}

// Zipf(1.0) requests over the pool of ids [first, first + size).
Calls ZipfCalls(const std::vector<Query>& queries, size_t first, size_t size,
                size_t requests, size_t batch, uint64_t seed) {
  const arecel::ZipfSampler zipf(size, kZipfExponent);
  arecel::Rng rng(seed);
  std::vector<uint32_t> ranking(size);
  std::iota(ranking.begin(), ranking.end(), static_cast<uint32_t>(first));
  Calls calls;
  std::vector<uint32_t> call;
  for (size_t i = 0; i < requests; ++i) {
    if (i % kRankingRequests == 0) rng.Shuffle(ranking);
    call.push_back(ranking[zipf.Sample(rng)]);
    if (call.size() == batch) {
      calls.Add(queries, call);
      call.clear();
    }
  }
  return calls;
}

// Calls of `batch` queries over ids [begin, end).
Calls RangeCalls(const std::vector<Query>& queries, size_t begin, size_t end,
                 size_t batch) {
  Calls calls;
  std::vector<uint32_t> call;
  for (size_t i = begin; i < end; ++i) {
    call.push_back(static_cast<uint32_t>(i));
    if (call.size() == batch || i + 1 == end) {
      calls.Add(queries, call);
      call.clear();
    }
  }
  return calls;
}

// Ids [0, spec.scored) are the scored probe; the streams never send them,
// so a scored pass leaves no cache entry or labelled truth a stream could
// reuse.
Inputs MakeInputs(const Spec& spec, const Table& table, const RunOptions& opt) {
  Inputs in;
  const size_t scored = spec.scored;
  AddDistinctQueries(table, scored, DeriveSeed(kDataSeed, 1), &in.queries);
  if (spec.pool > 0) {
    AddDistinctQueries(table, spec.pool, DeriveSeed(opt.seed, 2), &in.queries);
    for (int phase = 0; phase < 2; ++phase)
      in.stream[phase] =
          ZipfCalls(in.queries, scored, spec.pool, kRingRequests, spec.batch,
                    DeriveSeed(opt.seed, 3 + phase));
    in.cycle = true;
  } else {
    // Every request a distinct query; each phase takes its own range.
    const size_t per_phase = static_cast<size_t>(std::ceil(
        spec.distinct_per_second * opt.seconds / 2.0)) + 16;
    AddDistinctQueries(table, 2 * per_phase, DeriveSeed(opt.seed, 2),
                       &in.queries);
    in.stream[0] = RangeCalls(in.queries, scored, scored + per_phase, 1);
    in.stream[1] =
        RangeCalls(in.queries, scored + per_phase, in.queries.size(), 1);
  }
  in.scored.assign(in.queries.begin(), in.queries.begin() + scored);
  in.score = RangeCalls(in.queries, 0, scored, spec.batch);
  return in;
}

// One request span; id = index + 1, parent 0 is the run.
struct Span {
  const char* name;
  uint32_t parent;
  Clock::time_point start;
  Clock::time_point end;
};

// The closed-loop client: sends one call, waits for every reply and checks
// each response against what the data version and the served model imply.
class Client {
 public:
  Client(EstimatorServer* server, std::string dataset, std::string estimator,
         Checks* checks, RunResult* result)
      : server_(server),
        dataset_(std::move(dataset)),
        estimator_(std::move(estimator)),
        checks_(checks),
        result_(result) {}

  // What every response of the current phase must carry. `expected`, when
  // not empty, holds the bit-exact answer of each query id.
  void SetPhase(uint64_t version, std::vector<double> expected) {
    version_ = version;
    expected_ = std::move(expected);
  }

  // Returns the call's [start, end); fills `selectivities` when given.
  std::pair<Clock::time_point, Clock::time_point> Send(
      const std::vector<Query>& queries, const std::vector<uint32_t>& ids,
      std::vector<double>* selectivities) {
    const Clock::time_point start = Clock::now();
    if (queries.size() == 1) {
      one_[0] = server_->Estimate(dataset_, estimator_, queries[0]);
    } else {
      many_ = server_->EstimateBatch(dataset_, estimator_, queries);
    }
    const Clock::time_point end = Clock::now();
    const std::vector<EstimateResponse>& responses =
        queries.size() == 1 ? one_ : many_;
    if (responses.size() != queries.size())
      checks_->Fail("batch returned " + std::to_string(responses.size()) +
                    " responses for " + std::to_string(queries.size()));
    for (size_t i = 0; i < responses.size(); ++i) {
      const EstimateResponse& r = responses[i];
      ++result_->attempted;
      if (!r.ok) {
        ++result_->failed;
        continue;
      }
      const double s = r.selectivity;
      if (!std::isfinite(s) || s < 0.0 || s > 1.0)
        checks_->Fail("selectivity " + std::to_string(s) + " outside [0, 1]");
      if (r.data_version != version_)
        checks_->Fail("response at data version " +
                      std::to_string(r.data_version) + ", expected " +
                      std::to_string(version_));
      if (!expected_.empty() &&
          std::bit_cast<uint64_t>(s) !=
              std::bit_cast<uint64_t>(expected_[ids[i]]))
        checks_->Fail("query " + std::to_string(ids[i]) + " served " +
                      std::to_string(s) + ", direct estimate " +
                      std::to_string(expected_[ids[i]]));
      if (selectivities != nullptr) selectivities->push_back(s);
    }
    return {start, end};
  }

 private:
  EstimatorServer* server_;
  std::string dataset_;
  std::string estimator_;
  Checks* checks_;
  RunResult* result_;
  uint64_t version_ = 0;
  std::vector<double> expected_;
  std::vector<EstimateResponse> one_ = std::vector<EstimateResponse>(1);
  std::vector<EstimateResponse> many_;
};

// Totals of the timed streams of a run.
struct StreamLog {
  double seconds = 0;
  uint64_t estimates = 0;
  std::vector<double> call_us;  // per call; untraced blocks only.
  std::vector<double> group_qps;     // per group of kGroupCalls calls.
  std::vector<double> group_p99_us;  // per group of kGroupCalls calls.
  uint32_t last_id = 0;              // the last query sent.
  double drain_seconds = 0;
  uint64_t requests_seen_before = 0;  // (version, query) sent before.
  // Traced runs: time and estimates in blocks without and with spans.
  double block_seconds[2] = {0, 0};
  uint64_t block_estimates[2] = {0, 0};
  std::vector<Span> spans;
};

// Blocks until the truth queue is empty and checks that no job was lost.
void DrainAndCheck(EstimatorServer* server, Checks* checks) {
  server->DrainFeedback();
  const arecel::feedback::TruthWorkerStats w = server->feedback()->Stats().worker;
  if (w.enqueued != w.completed || w.dropped != 0)
    checks->Fail("truth queue after drain: enqueued " +
                 std::to_string(w.enqueued) + " completed " +
                 std::to_string(w.completed) + " dropped " +
                 std::to_string(w.dropped));
}

void RunStream(const Spec& spec, const Calls& calls, bool cycle,
               double seconds, bool trace, uint64_t version,
               EstimatorServer* server, Client* client, Checks* checks,
               std::set<std::pair<uint64_t, uint32_t>>* sent, StreamLog* log) {
  const uint32_t phase_span = static_cast<uint32_t>(log->spans.size()) + 1;
  if (trace) log->spans.push_back({"stream", 0, Clock::now(), {}});
  size_t since_drain = 0;
  uint64_t sent_requests = 0;
  const Timer timer;
  double group_begin = 0;
  uint64_t group_estimates = 0;
  std::vector<double> group_us;
  for (size_t i = 0; cycle || i < calls.size(); ++i) {
    const double begin = timer.ElapsedSeconds();
    if (begin >= seconds) break;
    const int traced = trace && (sent_requests / kTraceBlockRequests) % 2 == 1;
    const size_t c = i % calls.size();
    const auto [start, end] = client->Send(calls.queries[c], calls.ids[c],
                                           nullptr);
    const double us = Micros(end - start);
    if (!traced) log->call_us.push_back(us);
    group_us.push_back(us);
    if (traced) log->spans.push_back({"serve.estimate", phase_span, start, end});
    for (uint32_t id : calls.ids[c])
      if (!sent->insert({version, id}).second) ++log->requests_seen_before;
    log->last_id = calls.ids[c].back();
    log->estimates += calls.ids[c].size();
    group_estimates += calls.ids[c].size();
    sent_requests += calls.ids[c].size();
    since_drain += calls.ids[c].size();
    if (spec.drain_every > 0 && since_drain >= spec.drain_every) {
      const Clock::time_point d0 = Clock::now();
      DrainAndCheck(server, checks);
      const Clock::time_point d1 = Clock::now();
      log->drain_seconds += Micros(d1 - d0) * 1e-6;
      if (traced) log->spans.push_back({"feedback.drain", phase_span, d0, d1});
      since_drain = 0;
    }
    const double done = timer.ElapsedSeconds();
    log->block_seconds[traced] += done - begin;
    log->block_estimates[traced] += calls.ids[c].size();
    if (group_us.size() == kGroupCalls) {
      log->group_qps.push_back(static_cast<double>(group_estimates) /
                               (done - group_begin));
      log->group_p99_us.push_back(arecel::Percentile(group_us, 99.0));
      group_begin = done;
      group_estimates = 0;
      group_us.clear();
    }
  }
  if (spec.feedback) {
    const Clock::time_point d0 = Clock::now();
    DrainAndCheck(server, checks);
    log->drain_seconds += Micros(Clock::now() - d0) * 1e-6;
  }
  log->seconds += timer.ElapsedSeconds();
  if (trace) log->spans[phase_span - 1].end = Clock::now();
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (spans.empty()) return;
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  const Clock::time_point origin = spans.front().start;
  for (size_t i = 0; i < spans.size(); ++i)
    std::fprintf(out,
                 "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f}\n",
                 i + 1, spans[i].parent, spans[i].name,
                 Micros(spans[i].start - origin), Micros(spans[i].end - origin));
  std::fclose(out);
}

// Median over blocks of the mean time per call, in microseconds: a block
// hides the clock's own cost on sub-microsecond calls.
template <typename Fn>
double PerCallMicros(size_t n, Fn&& fn) {
  constexpr size_t kBlock = 16;
  static std::atomic<double> sink{0.0};
  std::vector<double> means;
  for (size_t begin = 0; begin < n; begin += kBlock) {
    const size_t end = std::min(n, begin + kBlock);
    double acc = 0.0;
    const Timer timer;
    for (size_t i = begin; i < end; ++i) acc += static_cast<double>(fn(i));
    means.push_back(timer.ElapsedMicros() / static_cast<double>(end - begin));
    sink.store(acc, std::memory_order_relaxed);
  }
  return Median(means);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Everything the traced run measures outside the timed streams.
struct LayerInputs {
  const Spec* spec;
  const arecel::serve::ServeOptions* options;
  std::string dataset;
  uint64_t update_seed = 0;
  std::shared_ptr<const Table> base;     // data version 0.
  std::shared_ptr<const Table> updated;  // data version 1.
  const Inputs* inputs;
  std::shared_ptr<const arecel::serve::ServedModel> model;  // serving v1.
  EstimatorServer* server;
  std::vector<double> generate_s;
  double hit_ratio = 0;
  uint64_t truth_jobs = 0;  // completed during the streams.
  const StreamLog* log;
};

void AddLayerMetrics(const LayerInputs& in, RunResult* result) {
  auto add = [&](const char* name, double value, const char* unit) {
    result->metrics.push_back({name, value, unit});
  };
  const Spec& spec = *in.spec;
  // Distinct queries the streams send, at most 2,000: scan, key and
  // feedback costs are per query and need no more.
  const std::vector<Query>& all = in.inputs->queries;
  const size_t first = in.inputs->scored.size();
  const std::vector<Query> queries(
      all.begin() + first, all.begin() + std::min(all.size(), first + 2000));
  const size_t probes = queries.size();

  std::atomic<size_t> touched{0};
  add("util.parallel_for_us", PerCallMicros(256, [&](size_t) {
        arecel::ParallelForChunked(0, 1024, [&](size_t lo, size_t hi) {
          touched.fetch_add(hi - lo, std::memory_order_relaxed);
        });
        return 0;
      }), "us");
  add("data.generate_s", Median(in.generate_s), "s");

  arecel::serve::ModelManager manager;
  manager.RegisterDataset(in.dataset, Table(*in.base));
  Timer append;
  manager.ApplyUpdate(in.dataset, in.options->update_fraction, in.update_seed);
  add("data.append_s", append.ElapsedSeconds(), "s");

  const uint64_t seed = arecel::serve::TrainSeedForVersion(
      in.options->manager.train_seed, 0);
  std::unique_ptr<arecel::CardinalityEstimator> direct =
      arecel::MakeEstimator(spec.estimator);
  arecel::Workload training;
  arecel::TrainContext context;
  context.seed = seed;
  double label_s = 0;
  if (direct->IsQueryDriven()) {
    Timer label;
    training = arecel::GenerateWorkload(
        *in.base, in.options->manager.train_query_count, seed);
    label_s = label.ElapsedSeconds();
    context.training_workload = &training;
  }
  add("workload.train_label_s", label_s, "s");
  Timer train;
  direct->Train(*in.base, context);
  add("estimator.train_s", train.ElapsedSeconds(), "s");
  // Inference on the serving model itself, so the figure compares with
  // the served calls. Nothing else is calling it now.
  const std::vector<Query>& scored = in.inputs->scored;
  const double infer_us = PerCallMicros(scored.size(), [&](size_t i) {
    return in.model->estimator->EstimateSelectivity(scored[i]);
  });
  add("estimator.infer_us", infer_us, "us");
  add("estimator.model_bytes",
      static_cast<double>(in.model->estimator->SizeBytes()), "B");

  Timer build;
  const arecel::scan::BlockScanner scanner(*in.updated);
  add("scan.synopsis_build_ms", build.ElapsedMillis(), "ms");
  add("scan.count_us", PerCallMicros(probes, [&](size_t i) {
        return scanner.Count(queries[i]);
      }), "us");
  const arecel::scan::ScanStats scan_stats = scanner.stats();
  add("scan.pruned_block_ratio",
      scan_stats.classified_blocks == 0
          ? 0.0
          : static_cast<double>(scan_stats.zone_skips +
                                scan_stats.bitmap_skips +
                                scan_stats.histogram_skips) /
                static_cast<double>(scan_stats.classified_blocks),
      "ratio");
  Timer label;
  arecel::scan::LabelMatches(*in.updated, queries);
  add("scan.label_us", label.ElapsedMicros() / static_cast<double>(probes),
      "us");

  const uint64_t version = in.model->data_version;
  const double key_us = PerCallMicros(probes, [&](size_t i) {
    return arecel::serve::EstimateCacheKey(in.dataset, spec.estimator, version,
                                           queries[i]).size();
  });
  add("serve.key_us", key_us, "us");
  // A benchmark-owned cache of the server's size replays the stream's keys.
  std::vector<std::string> keys;
  const Calls& stream = in.inputs->stream[1];
  for (size_t c = 0; c < stream.size() && keys.size() < 65536; ++c)
    for (const Query& q : stream.queries[c])
      keys.push_back(arecel::serve::EstimateCacheKey(in.dataset, spec.estimator,
                                                     version, q));
  arecel::serve::EstimateCache cache(in.options->cache_bytes,
                                     in.options->cache_shards);
  const double lookup_us = PerCallMicros(keys.size(), [&](size_t i) {
    double value = 0.0;
    if (!cache.Lookup(keys[i], &value)) cache.Insert(keys[i], 0.5);
    return value;
  });
  add("serve.cache.lookup_us", lookup_us, "us");
  add("serve.cache.hit_ratio", in.hit_ratio, "ratio");

  arecel::feedback::FeedbackHub* hub = in.server->feedback();
  double correct_us = 0;
  if (hub != nullptr) {
    const size_t rows = in.updated->num_rows();
    correct_us = PerCallMicros(probes, [&](size_t i) {
      return hub->Correct(in.dataset, spec.estimator, queries[i], 0.01, rows);
    });
  }
  // One estimate's serial layer cost; a batch fans out over the dispatch
  // threads the way EstimatorServer::EstimateBatch splits it (at least 8
  // queries per thread), so a call costs one thread's share.
  const size_t width = std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(arecel::ParallelWorkerCount()),
                          spec.batch / 8));
  const double serial_per_call =
      std::ceil(static_cast<double>(spec.batch) / static_cast<double>(width));
  const double attributed =
      serial_per_call *
      (key_us + lookup_us + (1.0 - in.hit_ratio) * infer_us + correct_us);
  add("serve.unattributed_us", Median(in.log->call_us) - attributed, "us");

  const StreamLog& log = *in.log;
  add("feedback.truth_jobs", static_cast<double>(in.truth_jobs), "count");
  add("feedback.truth_repeat_ratio",
      hub != nullptr && log.estimates > 0
          ? static_cast<double>(log.requests_seen_before) /
                static_cast<double>(log.estimates)
          : 0.0,
      "ratio");
  add("feedback.drain_share",
      log.seconds > 0 ? log.drain_seconds / log.seconds : 0.0, "ratio");
  add("feedback.correct_us", correct_us, "us");
  add("feedback.hub_bytes",
      hub != nullptr ? static_cast<double>(hub->SizeBytes()) : 0.0, "B");
  // One EstimateBatch of 64 stream queries, which fans out over the
  // dispatch threads; the cache holds most of them by now. Measured last
  // because it feeds the truth queue, which is drained after each call so
  // no job is dropped and nothing runs in the background afterwards.
  const std::vector<Query> batch64(
      queries.begin(), queries.begin() + std::min<size_t>(probes, 64));
  std::vector<double> batch_us;
  for (int i = 0; i < 50; ++i) {
    const Timer call;
    in.server->EstimateBatch(in.dataset, spec.estimator, batch64);
    batch_us.push_back(call.ElapsedMicros());
    in.server->DrainFeedback();
  }
  add("serve.batch64_us", Median(batch_us), "us");

  // 0 when a stream was too short to hold a traced block.
  const bool both = log.block_seconds[0] > 0 && log.block_seconds[1] > 0;
  add("trace.overhead_ratio",
      both ? (static_cast<double>(log.block_estimates[1]) /
              log.block_seconds[1]) /
                 (static_cast<double>(log.block_estimates[0]) /
                  log.block_seconds[0])
           : 0.0,
      "ratio");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "naru-distinct", "mscn-zipf-batch", "dmv-feedback"};
  return names;
}

RunResult RunWorkload(const RunOptions& opt) {
  const Spec spec = MakeSpec(opt.workload, opt.smoke);
  const std::string dataset = spec.table.name;
  RunResult result;
  Checks checks;

  arecel::serve::ServeOptions options = arecel::serve::ServeOptionsFromEnv();
  options.feedback_enabled = spec.feedback;

  // Set-up: data generation plus the first model ready, repeated; the last
  // server is the one that serves.
  std::unique_ptr<EstimatorServer> server;
  std::vector<double> setup_s, generate_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    server.reset();
    const Timer setup;
    Table table = arecel::GenerateDataset(spec.table, kDataSeed);
    generate_s.push_back(setup.ElapsedSeconds());
    server = std::make_unique<EstimatorServer>(options);
    server->RegisterDataset(dataset, std::move(table));
    std::string error;
    if (server->manager().GetModel(dataset, spec.estimator, &error) == nullptr) {
      checks.Fail("set-up: " + error);
      result.correct = false;
      result.errors = checks.errors();
      return result;
    }
    setup_s.push_back(setup.ElapsedSeconds());
  }

  const std::shared_ptr<const Table> base =
      server->manager().TableSnapshot(dataset);
  const Inputs inputs = MakeInputs(spec, *base, opt);
  const uint64_t update_seed = DeriveSeed(kDataSeed, 9);

  Client client(server.get(), dataset, spec.estimator, &checks, &result);
  StreamLog log;
  std::set<std::pair<uint64_t, uint32_t>> sent;
  std::vector<double> qerrors;
  std::vector<size_t> counts;
  uint64_t hits = 0, lookups = 0, truth_jobs = 0;
  std::vector<double> update_s, refresh_s;
  // No request is in flight and the truth queue is empty.
  auto timed_update = [&] {
    const uint64_t from = server->manager().DataVersion(dataset);
    const Timer update;
    const uint64_t bumped = server->Update(dataset, update_seed + from);
    const double kicked = update.ElapsedSeconds();
    server->WaitForRefreshes();
    update_s.push_back(update.ElapsedSeconds());
    refresh_s.push_back(update_s.back() - kicked);
    const auto model = server->manager().GetModel(dataset, spec.estimator);
    if (bumped != from + 1 || model == nullptr ||
        model->data_version != bumped)
      checks.Fail("update from data version " + std::to_string(from) +
                  " returned " + std::to_string(bumped));
  };
  for (int phase = 0; phase < 2; ++phase) {
    if (phase == 1) timed_update();
    const std::shared_ptr<const Table> table =
        server->manager().TableSnapshot(dataset);
    const uint64_t version = server->manager().DataVersion(dataset);
    const auto model = server->manager().GetModel(dataset, spec.estimator);
    if (model == nullptr || model->data_version != version) {
      checks.Fail("no model at data version " + std::to_string(version));
      break;
    }

    // The oracle against the scan engine, bit for bit, at this version.
    counts = OracleCounts(*table, inputs.scored);
    const std::vector<double> scanned =
        arecel::scan::LabelMatches(*table, inputs.scored);
    const double rows = static_cast<double>(table->num_rows());
    for (size_t id = 0; id < counts.size(); ++id)
      if (std::bit_cast<uint64_t>(static_cast<double>(counts[id]) / rows) !=
          std::bit_cast<uint64_t>(scanned[id]))
        checks.Fail("scan::LabelMatches disagrees with the oracle on query " +
                    std::to_string(id) + " at version " +
                    std::to_string(version));

    // Deterministic models without feedback must serve exactly what a
    // direct call on the serving model returns, clamped to 1.
    std::vector<double> expected;
    if (model->thread_safe && !spec.feedback)
      for (const Query& q : inputs.queries)
        expected.push_back(
            std::min(model->estimator->EstimateSelectivity(q), 1.0));
    client.SetPhase(version, std::move(expected));

    // Scored pass: its answers do not depend on thread timing. It follows
    // the model's training or the update directly, and with feedback on
    // each request is drained before the next.
    for (size_t c = 0; c < inputs.score.size(); ++c) {
      std::vector<double> served;
      client.Send(inputs.score.queries[c], inputs.score.ids[c], &served);
      if (spec.feedback) DrainAndCheck(server.get(), &checks);
      for (size_t i = 0; i < served.size(); ++i) {
        const uint32_t id = inputs.score.ids[c][i];
        sent.insert({version, id});
        qerrors.push_back(QError(served[i] * rows,
                                 static_cast<double>(counts[id])));
      }
    }

    const arecel::serve::ServerStats before = server->Stats();
    const uint64_t streamed = log.estimates;
    RunStream(spec, inputs.stream[phase], inputs.cycle, opt.seconds / 2.0,
              opt.trace, version, server.get(), &client, &checks, &sent, &log);
    const arecel::serve::ServerStats after = server->Stats();
    hits += after.cache.hits - before.cache.hits;
    lookups += (after.cache.hits + after.cache.misses) -
               (before.cache.hits + before.cache.misses);
    const uint64_t jobs =
        after.feedback.worker.completed - before.feedback.worker.completed;
    truth_jobs += jobs;
    // Every answered request, cache hits included, is labelled once.
    if (spec.feedback && jobs != log.estimates - streamed)
      checks.Fail("stream sent " + std::to_string(log.estimates - streamed) +
                  " requests but the truth worker labelled " +
                  std::to_string(jobs));
  }

  if (spec.feedback && checks.ok()) {
    // After the final drain, the stream's last query, repeated, answers
    // from its own remembered truth.
    const std::shared_ptr<const Table> table =
        server->manager().TableSnapshot(dataset);
    const Query& query = inputs.queries[log.last_id];
    std::vector<double> served;
    client.Send({query}, {log.last_id}, &served);
    DrainAndCheck(server.get(), &checks);
    const double q =
        served.empty()
            ? 0.0
            : QError(served[0] * static_cast<double>(table->num_rows()),
                     static_cast<double>(OracleCounts(*table, {query})[0]));
    if (!(q >= 1.0 && q <= kRepeatQErrorTolerance))
      checks.Fail("repeated query " + std::to_string(log.last_id) +
                  " q-error " + std::to_string(q) +
                  " after the final drain, tolerance " +
                  std::to_string(kRepeatQErrorTolerance));
  }

  if (opt.trace) {
    // Layer calls against the state the streams ran on (data version 1).
    LayerInputs layer;
    layer.spec = &spec;
    layer.options = &options;
    layer.dataset = dataset;
    layer.update_seed = update_seed;
    layer.base = base;
    layer.updated = server->manager().TableSnapshot(dataset);
    layer.inputs = &inputs;
    layer.model = server->manager().GetModel(dataset, spec.estimator);
    layer.server = server.get();
    layer.generate_s = generate_s;
    layer.hit_ratio = lookups ? static_cast<double>(hits) / lookups : 0.0;
    layer.truth_jobs = truth_jobs;
    layer.log = &log;
    AddLayerMetrics(layer, &result);
    if (!opt.trace_out.empty()) WriteSpans(opt.trace_out, log.spans);
  }

  // The remaining timed updates, each a further 20% append.
  while (update_s.size() < kUpdateRepetitions) timed_update();

  std::printf("run: workload=%s rows=%zu->%zu estimates=%llu stream_s=%.3f "
              "cache_hit_ratio=%.4f repeat_share=%.4f drain_s=%.3f\n",
              opt.workload.c_str(), base->num_rows(),
              server->manager().TableSnapshot(dataset)->num_rows(),
              static_cast<unsigned long long>(log.estimates), log.seconds,
              lookups ? static_cast<double>(hits) / lookups : 0.0,
              log.estimates ? static_cast<double>(log.requests_seen_before) /
                                  log.estimates
                            : 0.0,
              log.drain_seconds);

  auto add = [&](const char* name, double value, const char* unit) {
    result.metrics.push_back({name, value, unit});
  };
  if (opt.trace) {
    add("serve.refresh_s", Median(refresh_s), "s");
  } else {
    add("setup_s", Median(setup_s), "s");
    // Short runs (smoke) may have no complete group.
    const bool groups = !log.group_qps.empty();
    add("qps",
        groups ? Median(log.group_qps)
               : static_cast<double>(log.estimates) / log.seconds,
        "1/s");
    add("latency_p50_us", arecel::Percentile(log.call_us, 50.0), "us");
    add("latency_p99_us",
        groups ? Median(log.group_p99_us)
               : arecel::Percentile(log.call_us, 99.0),
        "us");
    add("update_s", Median(update_s), "s");
    add("qerror_p50", arecel::Percentile(qerrors, 50.0), "ratio");
    add("qerror_p95", arecel::Percentile(qerrors, 95.0), "ratio");
    add("rss_mb", PeakRssMb(), "MB");
  }
  result.correct = checks.ok();
  result.errors = checks.errors();
  return result;
}

}  // namespace servebench
