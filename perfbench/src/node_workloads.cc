// The two workloads that run the whole statement path: wire, router, WAL,
// fsync, analysis, publish and checkpoint, through an in-process TunerNode
// on loopback TCP.
//
// durable_node: closed loop. Four tenants, each with a private catalog and
//   its own trace at fleet-demo scale, go through one connection; each
//   tenant keeps a fixed window of statements submitted but not yet
//   analyzed, smaller than its queue, so a healthy run never sees kBusy.
// oltp_dba: open loop at a fixed offered rate. Two tenants (3:1 arrival
//   rates) draw Zipf-skewed statements from a few dozen seeded OLTP
//   templates on a Poisson schedule; a DBA reads each tenant's
//   recommendation every few statements and sometimes votes on it.
//
// The run's seed seeds every tenant's WFIT partition search and, on
// oltp_dba, the arrival schedule, the template draws and the DBA's votes.
// Statement content (traces, templates) is part of each workload's
// definition and does not change with the seed, so that runs with
// different seeds measure the same work.
//
// Both check every tenant's published trajectory against a direct
// in-process Wfit replay of the same statements and the same recorded
// votes; durable_node also reopens the checkpoint tree after shutdown and
// checks that every tenant recovers its analyzed count and recommendation.
// Retries are never hidden: every kBusy, error or timeout counts as a
// failed attempt.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/opt.h"
#include "cluster/node.h"
#include "common/rng.h"
#include "core/wfit.h"
#include "harness/offline_tuning.h"
#include "harness/total_work.h"
#include "net/client.h"
#include "obs/trace.h"
#include "service/tenant_router.h"
#include "workload/benchmark_trace.h"
#include "workload/generator.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

using wfit::IndexSet;
using wfit::Statement;
using wfit::Workload;
namespace net = wfit::net;
namespace obs = wfit::obs;
namespace service = wfit::service;

// ---------------------------------------------------------------------
// Workload configuration. Recorded with its reasons in perfbench/README.md
// and BENCHMARK.json; change both together.

constexpr double kFleetScale = 0.2;   // catalog scale of the fleet demo
constexpr size_t kIdxCnt = 16;        // fleet-demo WFIT
constexpr size_t kStateCnt = 256;
constexpr size_t kDrainThreads = 2;   // tenants contend in DRR
constexpr size_t kQueueCapacity = 256;
constexpr uint64_t kCheckpointEvery = 128;  // statements per checkpoint
// Statements per tenant the quality check (OPT) covers.
constexpr size_t kDurableQualityPrefix = 400;
constexpr size_t kOltpQualityPrefix = 2000;

// durable_node
constexpr int kDurableSetups = 3;
constexpr size_t kDurableTenants = 4;
constexpr size_t kDurableWindow = 64;  // < kQueueCapacity
constexpr int kDurablePhaseLen = 200;
constexpr int kDurablePhases = 40;     // 8000 statements per tenant

// oltp_dba
constexpr int kOltpSetups = 21;
constexpr double kOltpRate = 2500.0;   // offered statements/s, both tenants
constexpr double kOltpShare[2] = {0.75, 0.25};  // 3:1 arrival rates
constexpr size_t kOltpTemplates = 32;
// The templates and the order in which arrivals use them are part of the
// workload's definition, like the catalog, so every run analyzes the same
// statements. The run's seed drives the arrival times, the DBA's votes
// and WFIT's partition search.
constexpr uint64_t kStatementSeed = 20120402;
constexpr double kOltpZipf = 1.1;
constexpr size_t kReadEvery = 4;       // DBA read per this many statements
constexpr size_t kVoteEvery = 16;      // DBA vote per this many reads
constexpr uint64_t kVoteLead = 64;     // votes pin this far ahead

// Output-check replays run this many tenants at a time.
constexpr size_t kReplayThreads = 2;

// Traced runs alternate tracing on and off in slices of this length.
constexpr double kSliceSeconds = 0.5;

wfit::WfitOptions FleetOptions(uint64_t seed) {
  wfit::WfitOptions options;
  options.seed = seed;
  options.candidates.idx_cnt = kIdxCnt;
  options.candidates.state_cnt = kStateCnt;
  return options;
}

int64_t NowNs() { return static_cast<int64_t>(obs::NowNs()); }

struct Vote {
  uint64_t after_seq = 0;
  IndexSet plus;
  IndexSet minus;
};

/// One tenant: the node-side world its tuner lives in, its statement
/// stream, and the progress the benchmark observes.
struct Tenant {
  std::string id;
  uint64_t wfit_seed = 0;
  std::unique_ptr<World> world;
  Workload stream;
  /// oltp_dba: each statement's due time (ns after the load starts).
  std::vector<int64_t> due_offset_ns;

  // Runtime (shared between load, watcher and DBA threads).
  std::unique_ptr<std::atomic<int64_t>[]> origin_ns;  // lag origin per seq
  std::atomic<uint64_t> submitted{0};  // acknowledged kSubmitAt prefix
  std::atomic<uint64_t> analyzed{0};   // observed by the watcher
  std::atomic<int64_t> last_analyzed_ns{0};

  // Watcher-owned samples.
  Samples lag_ms;
  Samples local_read_us;
  // Votes as cast (DBA thread; read after it is joined).
  std::vector<Vote> votes;
};

/// Counts of what the load generator attempted, and its own samples.
struct LoadStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Samples ack_us;
  Samples late_ms;
  Samples read_us;
};

struct NodeEnv {
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::string root;
  std::unique_ptr<wfit::cluster::TunerNode> node;
};

/// Each tenant's tuner: a Wfit in the given world with its WFIT seed.
using TunerPlan = std::map<std::string, std::pair<World*, uint64_t>>;

service::TunerFactory MakeFactory(TunerPlan plan) {
  return [plan](const std::string& id) {
    const auto& [world, seed] = plan.at(id);
    service::TenantTuner made;
    made.tuner = std::make_unique<wfit::Wfit>(
        world->pool.get(), world->optimizer.get(), IndexSet{},
        FleetOptions(seed));
    made.pool = world->pool.get();
    return made;
  };
}

service::TenantRouterOptions RouterOptions(const std::string& root) {
  service::TenantRouterOptions options;
  options.checkpoint_root = root;
  options.drain_threads = kDrainThreads;
  options.analysis_threads = 1;
  options.shard.queue_capacity = kQueueCapacity;
  options.shard.record_history = true;
  options.shard.checkpoint_every_statements = kCheckpointEvery;
  options.shard.slow_statement_ms = 0;  // no per-statement log lines
  return options;
}

/// The fleet demo's trace for `tenant`, lengthened to more phases.
Workload DurableStream(const wfit::Catalog& catalog, size_t tenant) {
  wfit::TraceOptions trace;
  trace.seed += 31 * static_cast<uint64_t>(tenant);
  trace.num_phases = kDurablePhases;
  trace.statements_per_phase = kDurablePhaseLen;
  return wfit::ToWorkload(wfit::GenerateBenchmarkTrace(catalog, trace));
}

/// Point and narrow-range single-table statements, half of them writes.
Workload OltpTemplates(const wfit::Catalog& catalog, uint64_t seed) {
  wfit::GeneratorOptions narrow;
  narrow.join_extend_prob = 0.0;
  narrow.max_joins = 0;
  narrow.order_by_prob = 0.1;
  narrow.second_pred_prob = 0.3;
  narrow.query_sel_exp_min = -5.5;
  narrow.query_sel_exp_max = -3.5;
  narrow.update_sel_exp_min = -5.5;
  narrow.update_sel_exp_max = -3.5;
  narrow.delete_fraction = 0.3;
  narrow.insert_fraction = 0.3;
  narrow.count_star_prob = 0.1;
  wfit::StatementGenerator gen(&catalog, narrow, seed);
  const char* datasets[] = {"tpcc", "tpce"};
  Workload templates;
  for (size_t i = 0; i < kOltpTemplates; ++i) {
    const char* ds = datasets[(i / 2) % 2];
    templates.push_back(i % 2 == 0 ? gen.GenerateQuery(ds)
                                   : gen.GenerateUpdate(ds));
  }
  return templates;
}

/// Poisson arrivals over `seconds` (seeded by `arrival_seed`) carrying a
/// Zipf-skewed sequence of templates (seeded by `draw_seed`).
void OltpSchedule(const Workload& templates, double rate, double seconds,
                  uint64_t arrival_seed, uint64_t draw_seed, Tenant* t) {
  wfit::Rng arrivals(arrival_seed);
  wfit::Rng draws(draw_seed);
  std::vector<double> weights;
  for (size_t i = 0; i < templates.size(); ++i) {
    weights.push_back(1.0 / std::pow(static_cast<double>(i + 1), kOltpZipf));
  }
  double at = 0.0;
  while (true) {
    at += -std::log(1.0 - arrivals.Uniform(0.0, 1.0)) / rate;
    if (at >= seconds) break;
    t->due_offset_ns.push_back(static_cast<int64_t>(at * 1e9));
    t->stream.push_back(templates[draws.PickWeighted(weights)]);
  }
}

/// Builds the tenants and starts the node; every step a restarted
/// deployment repeats. Tenants are admitted (cold recovery) here.
NodeEnv SetUp(const RunArgs& args, bool oltp, const std::string& root) {
  NodeEnv env;
  env.root = root;
  RemoveTree(root);
  const size_t n = oltp ? 2 : kDurableTenants;
  TunerPlan plan;
  for (size_t i = 0; i < n; ++i) {
    auto t = std::make_unique<Tenant>();
    t->id = "tenant-" + std::to_string(i);
    t->wfit_seed = MixSeed(args.seed, 0x77666974ull + i);
    t->world = std::make_unique<World>(kFleetScale);
    if (oltp) {
      const Workload templates =
          OltpTemplates(t->world->catalog, MixSeed(kStatementSeed, i));
      OltpSchedule(templates, kOltpRate * kOltpShare[i], args.seconds,
                   MixSeed(args.seed, 0x73636864 + i),
                   MixSeed(kStatementSeed, 0x64726177 + i), t.get());
    } else {
      t->stream = DurableStream(t->world->catalog, i);
    }
    t->origin_ns.reset(new std::atomic<int64_t>[t->stream.size()]());
    plan[t->id] = {t->world.get(), t->wfit_seed};
    env.tenants.push_back(std::move(t));
  }
  wfit::cluster::TunerNodeOptions options;
  options.node_id = "n0";
  options.config.version = 1;
  options.config.nodes = {{"n0", "127.0.0.1", 0}};
  options.config.Normalize();
  options.router = RouterOptions(root);
  env.node = std::make_unique<wfit::cluster::TunerNode>(MakeFactory(plan),
                                                        std::move(options));
  const wfit::Status started = env.node->Start();
  if (!started.ok()) {
    std::cerr << "node start failed: " << started.ToString() << "\n";
    env.node.reset();
    return env;
  }
  for (auto& t : env.tenants) env.node->router().Recommendation(t->id);
  return env;
}

/// Blocks in WaitUntilAnalyzed and stamps every newly analyzed statement
/// with the time the router reported it analyzed and published. Exits
/// when the shard stops (router shutdown).
void WatchTenant(service::TenantRouter* router, Tenant* t,
                 std::mutex* mu, std::condition_variable* progress_cv) {
  uint64_t seen = 0;
  while (true) {
    bool reached = false;
    {
      obs::SpanGuard span("bench.wait_analyzed");
      reached = router->WaitUntilAnalyzed(t->id, seen + 1);
    }
    if (!reached) return;
    const int64_t now = NowNs();
    const uint64_t m = std::min<uint64_t>(router->analyzed(t->id),
                                          t->stream.size());
    for (uint64_t k = seen; k < m; ++k) {
      t->lag_ms.Add(static_cast<double>(
                        now - t->origin_ns[k].load(std::memory_order_relaxed)) /
                    1e6);
    }
    seen = m;
    // The DBA's in-process view: the published snapshot right after it
    // changed.
    const int64_t r0 = NowNs();
    {
      obs::SpanGuard span("bench.recommendation");
      router->Recommendation(t->id);
    }
    t->local_read_us.Add(static_cast<double>(NowNs() - r0) / 1e3);
    t->last_analyzed_ns.store(now, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(*mu);
      t->analyzed.store(m, std::memory_order_release);
    }
    progress_cv->notify_all();
  }
}

/// One RPC, timed by the benchmark; any non-kOk answer or transport
/// failure is a failed attempt (the caller decides whether to retry).
bool Call(net::Client* client, uint16_t port, const net::Request& req,
          LoadStats* stats, net::Response* out = nullptr) {
  ++stats->attempted;
  if (!client->connected() && !client->Connect("127.0.0.1", port).ok()) {
    ++stats->failed;
    return false;
  }
  obs::SpanGuard span("bench.call");
  auto resp = client->Call(req);
  if (!resp.ok() || resp->kind != net::RespKind::kOk) {
    ++stats->failed;
    return false;
  }
  if (out != nullptr) *out = std::move(*resp);
  return true;
}

net::Request SubmitRequest(const Tenant& t, uint64_t seq) {
  net::Request req;
  req.type = net::MsgType::kSubmitAt;
  req.tenant = t.id;
  req.seq = seq;
  req.has_statement = true;
  req.statement = t.stream[seq];
  return req;
}

/// Four times a second during the load: the analysis rate since the last
/// sample and the checkpoint tree's size per statement analyzed so far.
class ProgressSampler {
 public:
  ProgressSampler(std::function<uint64_t()> analyzed_total, std::string root)
      : analyzed_total_(std::move(analyzed_total)), root_(std::move(root)) {}

  void Tick() {
    const int64_t now = NowNs();
    if (last_ns_ == 0) {
      last_ns_ = now;
      return;
    }
    if (now - last_ns_ < 250000000) return;
    const uint64_t analyzed = analyzed_total_();
    rates_.push_back(static_cast<double>(analyzed - last_analyzed_) /
                     (static_cast<double>(now - last_ns_) / 1e9));
    if (analyzed > 0) {
      disk_per_stmt_.push_back(static_cast<double>(TreeBytes(root_)) /
                               static_cast<double>(analyzed));
    }
    last_ns_ = now;
    last_analyzed_ = analyzed;
  }

  /// Median of the quarter-second analysis rates.
  double MedianRate() const { return Median(rates_); }
  size_t windows() const { return rates_.size(); }
  /// Median tree bytes per analyzed statement over the second half of the
  /// run (the tree grows and shrinks with each checkpoint and compaction).
  double DiskPerStmt() const {
    const size_t half = disk_per_stmt_.size() / 2;
    return Median(std::vector<double>(disk_per_stmt_.begin() + half,
                                      disk_per_stmt_.end()));
  }

 private:
  std::function<uint64_t()> analyzed_total_;
  std::string root_;
  int64_t last_ns_ = 0;
  uint64_t last_analyzed_ = 0;
  std::vector<double> rates_;
  std::vector<double> disk_per_stmt_;
};

/// Alternates tracing on and off (U T T U U T T U ...) so that each
/// adjacent pair has one of each, in alternating order, while a collector
/// drains the span rings often enough that none overflows.
class TraceSlicer {
 public:
  TraceSlicer(bool enabled, std::function<uint64_t()> analyzed_total)
      : enabled_(enabled), analyzed_total_(std::move(analyzed_total)) {}
  ~TraceSlicer() {
    stop_.store(true);
    if (collector_.joinable()) collector_.join();
  }
  TraceSlicer(const TraceSlicer&) = delete;
  TraceSlicer& operator=(const TraceSlicer&) = delete;

  /// Called by the load thread; flips tracing at slice boundaries.
  void Tick() {
    if (!enabled_) return;
    const int64_t now = NowNs();
    if (slice_start_ == 0) {
      obs::ClearTraceForTest();
      StartSlice(now);
      collector_ = std::thread([this] { CollectLoop(); });
      return;
    }
    if (now - slice_start_ < static_cast<int64_t>(kSliceSeconds * 1e9)) return;
    EndSlice(now);
    ++slice_;
    StartSlice(now);
  }

  /// Ends the last slice and stops collecting (tracing off).
  void Finish() {
    if (!enabled_ || slice_start_ == 0) return;
    EndSlice(NowNs());
    obs::SetTracingEnabled(false);
    stop_.store(true);
    collector_.join();
  }

  /// Final drain once every thread that records spans is quiet.
  void Drain() {
    if (!enabled_) return;
    store_.Absorb(obs::CollectSpans());
    const obs::TraceCounters c = obs::CollectTraceCounters();
    const uint64_t collected = store_.size() + store_.instants();
    if (c.recorded > collected) store_.AddLost(c.recorded - collected);
  }

  const SpanStore& store() const { return store_; }
  uint64_t collections() const { return collections_; }
  double collect_ms() const { return static_cast<double>(collect_ns_) / 1e6; }
  double traced_ms() const { return traced_ns_ / 1e6; }
  std::vector<double> OverheadPct() const {
    std::vector<double> out;
    for (size_t i = 0; i + 1 < rates_.size(); i += 2) {
      const auto& a = rates_[i];
      const auto& b = rates_[i + 1];
      if (a.first == b.first || a.second <= 0 || b.second <= 0) continue;
      const double untraced = a.first ? b.second : a.second;
      const double traced = a.first ? a.second : b.second;
      out.push_back(100.0 * (untraced / traced - 1.0));
    }
    return out;
  }

 private:
  bool Traced(size_t slice) const { return ((slice + 1) / 2) % 2 == 1; }
  void StartSlice(int64_t now) {
    slice_start_ = now;
    slice_analyzed_ = analyzed_total_();
    obs::SetTracingEnabled(Traced(slice_));
  }
  void EndSlice(int64_t now) {
    const double secs = static_cast<double>(now - slice_start_) / 1e9;
    const double done =
        static_cast<double>(analyzed_total_() - slice_analyzed_);
    rates_.push_back({Traced(slice_), done / secs});
    if (Traced(slice_)) traced_ns_ += static_cast<double>(now - slice_start_);
  }
  void CollectLoop() {
    // Each ring holds 4096 spans; collect often enough that the busiest
    // thread fills at most a quarter of its ring between collections,
    // and at least every 4 ms while tracing (one statement can record a
    // few thousand what-if probe spans in a burst).
    constexpr double kTargetSpans = 1024.0;
    int64_t interval_us = 2000;
    int64_t last = NowNs();
    bool was_tracing = false;
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(interval_us));
      const bool tracing = obs::TracingEnabled();
      if (!tracing && !was_tracing) {
        interval_us = 5000;  // nothing is recorded in untraced slices
        continue;
      }
      was_tracing = tracing;
      const int64_t c0 = NowNs();
      size_t busiest = 0;
      store_.Absorb(obs::CollectSpans(), &busiest);
      const int64_t now = NowNs();
      collect_ns_ += now - c0;
      ++collections_;
      const double per_us =
          static_cast<double>(busiest) / (static_cast<double>(now - last) / 1e3);
      last = now;
      interval_us = per_us > 0 ? static_cast<int64_t>(kTargetSpans / per_us)
                               : 4000;
      interval_us = std::clamp<int64_t>(interval_us, 500, 4000);
    }
  }

  bool enabled_;
  std::function<uint64_t()> analyzed_total_;
  int64_t slice_start_ = 0;
  size_t slice_ = 0;
  uint64_t slice_analyzed_ = 0;
  double traced_ns_ = 0.0;
  std::vector<std::pair<bool, double>> rates_;
  std::atomic<bool> stop_{false};
  std::thread collector_;
  // Collector thread until joined.
  SpanStore store_;
  int64_t collect_ns_ = 0;
  uint64_t collections_ = 0;
};

// ---------------------------------------------------------------------
// Load generators.

/// durable_node: one thread, one connection, a fixed in-flight window
/// per tenant. Returns when the time is up or every stream is exhausted.
void DurableLoad(NodeEnv& env, double seconds, std::mutex* mu,
                 std::condition_variable* progress_cv, TraceSlicer* slicer,
                 ProgressSampler* sampler, LoadStats* stats) {
  net::Client client;
  const uint16_t port = env.node->port();
  const size_t n = env.tenants.size();
  size_t rr = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) {
    slicer->Tick();
    sampler->Tick();
    Tenant* pick = nullptr;
    bool any_left = false;
    for (size_t j = 0; j < n && pick == nullptr; ++j) {
      Tenant* t = env.tenants[(rr + j) % n].get();
      const uint64_t sub = t->submitted.load();
      if (sub >= t->stream.size()) continue;
      any_left = true;
      if (sub - t->analyzed.load(std::memory_order_acquire) < kDurableWindow) {
        pick = t;
        rr = (rr + j + 1) % n;
      }
    }
    if (!any_left) break;
    if (pick == nullptr) {
      std::unique_lock<std::mutex> lock(*mu);
      progress_cv->wait_for(lock, std::chrono::milliseconds(2), [&] {
        for (auto& t : env.tenants) {
          const uint64_t sub = t->submitted.load();
          if (sub < t->stream.size() &&
              sub - t->analyzed.load(std::memory_order_acquire) <
                  kDurableWindow) {
            return true;
          }
        }
        return false;
      });
      continue;
    }
    const uint64_t seq = pick->submitted.load();
    const int64_t sent = NowNs();
    pick->origin_ns[seq].store(sent, std::memory_order_relaxed);
    if (Call(&client, port, SubmitRequest(*pick, seq), stats)) {
      stats->ack_us.Add(static_cast<double>(NowNs() - sent) / 1e3);
      pick->submitted.store(seq + 1);
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

/// oltp_dba: one thread and connection per tenant, sending each statement
/// at its due time; latency is timed from the due time.
void OltpTenantLoad(Tenant* t, uint16_t port, int64_t start_ns,
                    LoadStats* stats) {
  net::Client client;
  for (uint64_t seq = 0; seq < t->stream.size(); ++seq) {
    const int64_t due = start_ns + t->due_offset_ns[seq];
    const int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    t->origin_ns[seq].store(due, std::memory_order_relaxed);
    stats->late_ms.Add(static_cast<double>(std::max<int64_t>(0, NowNs() - due)) /
                       1e6);
    int attempts = 0;
    while (!Call(&client, port, SubmitRequest(*t, seq), stats)) {
      if (++attempts > 10000) return;  // the run reports the failures
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    stats->ack_us.Add(static_cast<double>(NowNs() - due) / 1e3);
    t->submitted.store(seq + 1);
  }
}

struct DbaRead {
  int64_t due_offset_ns = 0;
  Tenant* tenant = nullptr;
  uint64_t seq = 0;   // the tenant statement the read follows
  bool vote = false;
};

/// The DBA: reads each tenant's recommendation every kReadEvery
/// statements and, every kVoteEvery reads, vetoes or endorses one index
/// it just read. Votes pin to a boundary kVoteLead statements past the
/// tenant's submissions so they apply at a deterministic point.
void OltpDba(const std::vector<DbaRead>& reads, uint16_t port,
             int64_t start_ns, LoadStats* stats) {
  net::Client client;
  size_t votes = 0;
  for (const DbaRead& r : reads) {
    const int64_t due = start_ns + r.due_offset_ns;
    const int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    net::Request req;
    req.type = net::MsgType::kGetRecommendation;
    req.tenant = r.tenant->id;
    net::Response resp;
    if (!Call(&client, port, req, stats, &resp)) continue;
    stats->read_us.Add(static_cast<double>(NowNs() - due) / 1e3);
    if (!r.vote || resp.configuration.empty()) continue;
    Vote v;
    v.after_seq = std::max<uint64_t>(r.seq, r.tenant->submitted.load()) +
                  kVoteLead;
    if (v.after_seq >= r.tenant->stream.size()) continue;
    std::vector<wfit::IndexId> ids(resp.configuration.begin(),
                                   resp.configuration.end());
    const wfit::IndexId pick = ids[votes % ids.size()];
    (votes % 2 == 0 ? v.minus : v.plus).Add(pick);
    ++votes;
    net::Request fb;
    fb.type = net::MsgType::kFeedbackAfter;
    fb.tenant = r.tenant->id;
    fb.seq = v.after_seq;
    fb.f_plus = v.plus;
    fb.f_minus = v.minus;
    if (Call(&client, port, fb, stats)) r.tenant->votes.push_back(std::move(v));
  }
}

// ---------------------------------------------------------------------
// Output checks.

struct ReplayResult {
  bool match = true;
  std::string why;
  Samples analyze_us;
};

/// Direct in-process Wfit replay of the statements the tenant got
/// analyzed, with its recorded votes, compared against the published
/// trajectory.
ReplayResult Replay(const Tenant& t, uint64_t count,
                    const std::vector<IndexSet>& published) {
  ReplayResult r;
  World world(kFleetScale);
  wfit::Wfit tuner(world.pool.get(), world.optimizer.get(), IndexSet{},
                   FleetOptions(t.wfit_seed));
  std::multimap<uint64_t, const Vote*> votes;
  for (const Vote& v : t.votes) votes.emplace(v.after_seq, &v);
  if (published.size() != count) {
    r.match = false;
    r.why = t.id + ": published " + std::to_string(published.size()) +
            " recommendations for " + std::to_string(count) + " statements";
    return r;
  }
  for (uint64_t k = 0; k < count; ++k) {
    const Clock::time_point t0 = Clock::now();
    tuner.AnalyzeQuery(t.stream[k]);
    r.analyze_us.Add(MicrosBetween(t0, Clock::now()));
    auto [lo, hi] = votes.equal_range(k);
    for (auto it = lo; it != hi; ++it) {
      tuner.Feedback(it->second->plus, it->second->minus);
    }
    if (r.match && tuner.Recommendation() != published[k]) {
      r.match = false;
      r.why = t.id + ": published trajectory diverges from the replay at "
              "statement " + std::to_string(k);
    }
  }
  return r;
}

/// Tuning quality on each tenant's first `prefix_len` statements, by
/// Fig. 12's recipe (OPT over the offline stateCnt-500 partition), for
/// WFIT alone: DBA votes move the trajectory by design and with timing,
/// so they are left out here. Returns sum(OPT totWork) / sum(WFIT
/// totWork); `*statements` receives how many statements it covered.
double QualityRatio(const std::vector<std::unique_ptr<Tenant>>& tenants,
                    size_t prefix_len, size_t* statements) {
  double opt_total = 0.0;
  double wfit_total = 0.0;
  *statements = 0;
  for (const auto& t : tenants) {
    const size_t n = std::min(prefix_len, t->stream.size());
    *statements += n;
    const Workload prefix(t->stream.begin(), t->stream.begin() + n);
    World world(kFleetScale);
    wfit::Wfit tuner(world.pool.get(), world.optimizer.get(), IndexSet{},
                     FleetOptions(t->wfit_seed));
    wfit::TotalWorkMeter meter(world.optimizer.get(), IndexSet{});
    for (const Statement& q : prefix) {
      tuner.AnalyzeQuery(q);
      meter.Step(q, tuner.Recommendation());
    }
    wfit_total += meter.total();
    wfit::harness::OfflineTuningOptions offline;
    offline.idx_cnt = 40;
    offline.state_cnt = 500;
    const auto fixed = wfit::harness::ComputeFixedPartition(
        prefix, world.pool.get(), world.optimizer.get(), offline);
    wfit::OptimalPlanner planner(world.pool.get(), world.optimizer.get());
    opt_total += planner.Solve(prefix, fixed.partition, IndexSet{}).total_work;
  }
  return wfit_total > 0 ? opt_total / wfit_total : 0.0;
}

// ---------------------------------------------------------------------
// Per-layer metrics shared by the node workloads.

/// Inputs of the statement-path per-layer metrics.
struct PathLayerInputs {
  std::map<std::string, SpanStat> spans;
  service::MetricsSnapshot metrics;
  uint64_t empty_turns = 0;
  uint64_t analyzed = 0;
  const LoadStats* load = nullptr;
  uint64_t backlog_end = 0;
};

void AddStatementPathLayers(const PathLayerInputs& in, Report* report) {
  auto stat = [&](const char* name) {
    auto it = in.spans.find(name);
    return it == in.spans.end() ? SpanStat{} : it->second;
  };
  const service::MetricsSnapshot& m = in.metrics;
  const double stmts = std::max<double>(1.0, static_cast<double>(in.analyzed));
  const SpanStat fsync = stat("wal.fsync");
  const SpanStat cli_submit = stat("cli.submit_at");
  const SpanStat srv_submit = stat("srv.submit_at");
  const SpanStat cli_read = stat("cli.get_recommendation");
  const SpanStat cli_vote = stat("cli.feedback_after");
  report->Add("service.queue_wait.mean_us",
              m.stage_mean_us(obs::Stage::kQueueWait), "us",
              m.stage_count(obs::Stage::kQueueWait));
  report->Add("service.batches", m.batches, "count", m.batches);
  report->Add("service.batch.mean", m.mean_batch(), "stmt", m.batches);
  report->Add("service.publish.ms", stat("publish").total_ms, "ms",
              stat("publish").count);
  report->Add("service.push_waits", m.push_waits, "count", in.analyzed);
  report->Add("service.submit_rejected", m.submit_rejected, "count",
              in.analyzed);
  report->Add("service.router.empty_turns", in.empty_turns, "count",
              in.analyzed);
  report->Add("persist.wal_append.ms", stat("wal.append").total_ms, "ms",
              stat("wal.append").count);
  report->Add("persist.wal_fsync.ms", fsync.total_ms, "ms", fsync.count);
  report->Add("persist.wal_fsync.p99_us", fsync.dur_us.Tail(), "us",
              fsync.count);
  report->Add("persist.journal.syncs_per_kstmt",
              1000.0 * static_cast<double>(m.journal_syncs) / stmts,
              "syncs/kstmt", in.analyzed);
  report->Add("persist.journal.bytes_per_stmt",
              static_cast<double>(m.journal_bytes + m.journal_compacted_bytes) /
                  stmts,
              "B", in.analyzed, "journal bytes written, compacted included");
  report->Add("persist.checkpoint.ms", stat("checkpoint").total_ms, "ms",
              stat("checkpoint").count);
  report->Add("persist.checkpoint.count", m.checkpoints_written, "count",
              m.checkpoints_written);
  report->Add("persist.checkpoint.delta_frac",
              m.checkpoints_written > 0
                  ? static_cast<double>(m.checkpoints_delta) /
                        static_cast<double>(m.checkpoints_written)
                  : 0.0,
              "ratio", m.checkpoints_written);
  report->Add("persist.snapshot.bytes", m.last_snapshot_bytes, "B",
              m.checkpoints_written, "last full snapshot, summed over tenants");
  report->Add("persist.delta.bytes", m.last_delta_bytes, "B",
              m.checkpoints_delta, "last delta, summed over tenants");
  report->Add("persist.journal.compactions", m.journal_compactions, "count",
              m.journal_compactions);
  report->Add("net.cli.submit_at.p50_us", cli_submit.dur_us.P50(), "us",
              cli_submit.count);
  report->Add("net.cli.submit_at.p99_us", cli_submit.dur_us.Tail(), "us",
              cli_submit.count);
  report->Add("net.srv.submit_at.mean_us", srv_submit.dur_us.Mean(), "us",
              srv_submit.count);
  report->Add("net.wire.mean_us",
              cli_submit.count > 0
                  ? cli_submit.dur_us.Mean() - srv_submit.dur_us.Mean()
                  : 0.0,
              "us", cli_submit.count, "cli.submit_at - srv.submit_at");
  report->Add("net.cli.get_recommendation.p99_us", cli_read.dur_us.Tail(),
              "us", cli_read.count);
  report->Add("net.cli.feedback_after.p99_us", cli_vote.dur_us.Tail(), "us",
              cli_vote.count);
  const LoadStats none;
  const LoadStats& load = in.load != nullptr ? *in.load : none;
  report->Add("loadgen.late_p99_ms", load.late_ms.Tail(), "ms",
              load.late_ms.n());
  report->Add("loadgen.backlog_end", in.backlog_end, "stmt", in.analyzed);
  report->Add("failed_frac",
              load.attempted > 0 ? static_cast<double>(load.failed) /
                                       static_cast<double>(load.attempted)
                                 : 0.0,
              "ratio", load.attempted, "base: attempted RPCs");
}

// ---------------------------------------------------------------------
// The shared run.

void RunNode(const RunArgs& args, bool oltp, Report* report) {
  const std::string name = oltp ? "oltp_dba" : "durable_node";
  std::vector<double> setup_s;
  NodeEnv env;
  const int setups = oltp ? kOltpSetups : kDurableSetups;
  for (int i = 0; i < setups; ++i) {
    env.node.reset();  // before the worlds its tuners point into
    env = NodeEnv{};
    const Clock::time_point t0 = Clock::now();
    env = SetUp(args, oltp, args.work_dir + "/" + name + "_" +
                                std::to_string(i));
    setup_s.push_back(SecondsSince(t0));
    if (env.node == nullptr) {
      report->Fail(name + ": node failed to start");
      return;
    }
  }
  for (int i = 0; i + 1 < setups; ++i) {
    RemoveTree(args.work_dir + "/" + name + "_" + std::to_string(i));
  }
  service::TenantRouter& router = env.node->router();
  std::mutex mu;
  std::condition_variable progress_cv;
  std::vector<std::thread> watchers;
  for (auto& t : env.tenants) {
    watchers.emplace_back(WatchTenant, &router, t.get(), &mu, &progress_cv);
  }
  auto analyzed_total = [&env] {
    uint64_t total = 0;
    for (auto& t : env.tenants) total += t->analyzed.load();
    return total;
  };
  std::vector<uint64_t> calls_before;
  for (auto& t : env.tenants) {
    calls_before.push_back(t->world->optimizer->num_calls());
  }
  TraceSlicer slicer(args.trace, analyzed_total);
  ProgressSampler sampler(analyzed_total, env.root);

  // --- Load -------------------------------------------------------------
  LoadStats load;
  uint64_t backlog_end = 0;
  const int64_t start_ns = NowNs();
  if (!oltp) {
    DurableLoad(env, args.seconds, &mu, &progress_cv, &slicer, &sampler,
                &load);
  } else {
    std::vector<DbaRead> reads;
    for (auto& t : env.tenants) {
      for (uint64_t k = kReadEvery - 1; k < t->stream.size();
           k += kReadEvery) {
        const bool vote = ((k + 1) / kReadEvery) % kVoteEvery == 0;
        reads.push_back({t->due_offset_ns[k], t.get(), k, vote});
      }
    }
    std::sort(reads.begin(), reads.end(),
              [](const DbaRead& a, const DbaRead& b) {
                return a.due_offset_ns < b.due_offset_ns;
              });
    std::vector<LoadStats> per_thread(env.tenants.size() + 1);
    std::vector<std::thread> threads;
    const uint16_t port = env.node->port();
    for (size_t i = 0; i < env.tenants.size(); ++i) {
      threads.emplace_back(OltpTenantLoad, env.tenants[i].get(), port,
                           start_ns, &per_thread[i]);
    }
    threads.emplace_back(OltpDba, std::cref(reads), port, start_ns,
                         &per_thread.back());
    while (NowNs() - start_ns < static_cast<int64_t>(args.seconds * 1e9)) {
      slicer.Tick();
      sampler.Tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (std::thread& th : threads) th.join();
    uint64_t submitted = 0;
    for (auto& t : env.tenants) submitted += t->submitted.load();
    backlog_end = submitted - analyzed_total();
    for (const LoadStats& s : per_thread) {
      load.attempted += s.attempted;
      load.failed += s.failed;
      load.ack_us.Append(s.ack_us);
      load.late_ms.Append(s.late_ms);
      load.read_us.Append(s.read_us);
    }
  }
  slicer.Finish();
  // Everything submitted gets analyzed before the clock stops.
  uint64_t submitted = 0;
  for (auto& t : env.tenants) submitted += t->submitted.load();
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!progress_cv.wait_for(lock, std::chrono::seconds(60), [&] {
          return analyzed_total() >= submitted;
        })) {
      report->Fail(name + ": statements were never analyzed");
    }
  }
  int64_t end_ns = start_ns;
  for (auto& t : env.tenants) {
    end_ns = std::max(end_ns, t->last_analyzed_ns.load());
  }
  const double elapsed = static_cast<double>(end_ns - start_ns) / 1e9;
  const uint64_t analyzed = analyzed_total();
  report->attempted = std::max<uint64_t>(1, load.attempted);
  report->failed = load.failed;

  // --- Checks: published trajectories against direct replays ----------
  std::vector<std::vector<IndexSet>> published;
  for (auto& t : env.tenants) published.push_back(router.History(t->id));
  const service::RouterMetricsSnapshot metrics = router.Metrics();
  uint64_t whatif_calls = 0;
  for (size_t i = 0; i < env.tenants.size(); ++i) {
    whatif_calls +=
        env.tenants[i]->world->optimizer->num_calls() - calls_before[i];
  }
  std::vector<IndexSet> last_recs;
  for (auto& p : published) last_recs.push_back(p.empty() ? IndexSet{} : p.back());
  env.node->Shutdown();
  for (std::thread& w : watchers) w.join();
  slicer.Drain();

  // Two replays at a time, on half the host's cores: analyze_* times
  // them, and the node is idle by now.
  const Clock::time_point replay0 = Clock::now();
  std::vector<ReplayResult> replays(env.tenants.size());
  {
    std::vector<std::thread> threads;
    for (size_t lane = 0; lane < kReplayThreads; ++lane) {
      threads.emplace_back([&, lane] {
        for (size_t i = lane; i < env.tenants.size(); i += kReplayThreads) {
          replays[i] = Replay(*env.tenants[i],
                              env.tenants[i]->submitted.load(), published[i]);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  Samples analyze_us;
  for (const ReplayResult& r : replays) {
    if (!r.match) report->Fail(name + ": " + r.why);
    analyze_us.Append(r.analyze_us);
  }

  std::cout << name << ": replay check took " << SecondsSince(replay0)
            << " s\n";

  // --- durable_node: a fresh router recovers every tenant -------------
  if (!oltp) {
    std::vector<std::unique_ptr<World>> worlds;
    TunerPlan plan;
    for (auto& t : env.tenants) {
      worlds.push_back(std::make_unique<World>(kFleetScale));
      plan[t->id] = {worlds.back().get(), t->wfit_seed};
    }
    const Clock::time_point r0 = Clock::now();
    service::TenantRouter reopened(MakeFactory(plan),
                                   RouterOptions(env.root));
    reopened.Start();
    for (size_t i = 0; i < env.tenants.size(); ++i) {
      const Tenant& t = *env.tenants[i];
      const uint64_t want = t.submitted.load();
      auto rec = reopened.Recommendation(t.id);
      if (reopened.analyzed(t.id) != want || rec == nullptr ||
          rec->configuration != last_recs[i]) {
        report->Fail(name + ": " + t.id +
                     " did not recover its analyzed count and recommendation");
      }
    }
    const double recovery_s = SecondsSince(r0);
    reopened.Shutdown();
    std::cout << name << ": reopened checkpoint tree recovered "
              << env.tenants.size() << " tenants in " << recovery_s << " s\n";
  }

  if (args.trace) {
    std::cout << name << ": " << slicer.collections()
              << " span collections took " << slicer.collect_ms() << " ms\n";
  }
  std::cout << name << ": " << analyzed << " statements in " << elapsed
            << " s, " << load.attempted << " RPCs (" << load.failed
            << " failed), checkpoint tree " << TreeBytes(env.root)
            << " B\n";
  for (auto& t : env.tenants) {
    std::cout << "  " << t->id << ": " << t->submitted.load()
              << " statements, " << t->votes.size() << " votes\n";
  }

  Samples lag_ms;
  Samples local_read_us;
  for (auto& t : env.tenants) {
    lag_ms.Append(t->lag_ms);
    local_read_us.Append(t->local_read_us);
  }
  if (args.trace) {
    // These repeat too poorly between runs on a shared host to gate; the
    // traced run reports them per layer.
    const Samples& read_us = oltp ? load.read_us : local_read_us;
    report->AddP99("analyze", analyze_us, "us");
    report->AddP50("ack", load.ack_us, "us");
    report->AddP99("ack", load.ack_us, "us");
    report->AddP50("lag", lag_ms, "ms");
    report->AddP99("lag", lag_ms, "ms");
    report->AddP50("read", read_us, "us");
    report->AddP99("read", read_us, "us");
    report->Add("disk_bytes_per_stmt", sampler.DiskPerStmt(), "B", analyzed,
                "checkpoint tree per statement, median of the second half");
    const service::MetricsSnapshot& m = metrics.aggregate;
    CoreLayerInputs core;
    core.store = &slicer.store();
    core.window_ms = slicer.traced_ms();
    core.overhead_pct = slicer.OverheadPct();
    core.statements = analyzed;
    core.repartitions = m.repartitions;
    core.feedback_applied = m.feedback_applied;
    core.whatif_calls = whatif_calls;
    core.cache_hits = m.what_if_cache_hits + m.what_if_cross_hits;
    core.cache_probes = core.cache_hits + m.what_if_cache_misses;
    AddCoreLayers(core, report);
    PathLayerInputs path;
    path.spans = slicer.store().ByName();
    path.metrics = m;
    path.empty_turns = metrics.empty_turns;
    path.analyzed = analyzed;
    path.load = &load;
    path.backlog_end = backlog_end;
    AddStatementPathLayers(path, report);
  } else {
    // Closed loop: the median quarter-second rate, robust to interference from
    // other processes. Open loop: the achieved rate over the whole run.
    report->Add("stmts_per_s",
                oltp ? static_cast<double>(analyzed) / elapsed
                     : sampler.MedianRate(),
                "stmt/s", analyzed,
                oltp ? "achieved" : "median of " +
                                        std::to_string(sampler.windows()) +
                                        " quarter-second windows");
    report->AddP50("analyze", analyze_us, "us");
    const size_t prefix =
        oltp ? kOltpQualityPrefix : kDurableQualityPrefix;
    const Clock::time_point q0 = Clock::now();
    size_t quality_statements = 0;
    const double quality =
        QualityRatio(env.tenants, prefix, &quality_statements);
    std::cout << name << ": quality check took " << SecondsSince(q0)
              << " s\n";
    report->Add("totwork_vs_opt", quality, "ratio", quality_statements,
                "OPT / WFIT totWork on each tenant's first statements");
    report->Add("rss_peak_mb", PeakRssMb(), "MB", 1);
    report->Add("setup_s", Median(setup_s), "s", setup_s.size(),
                "median of repeated set-ups");
  }
  env.node.reset();
  RemoveTree(env.root);
}

}  // namespace

void AddNoStatementPathLayers(Report* report) {
  AddStatementPathLayers({}, report);
}

void RunDurableNode(const RunArgs& args, Report* report) {
  RunNode(args, /*oltp=*/false, report);
}

void RunOltpDba(const RunArgs& args, Report* report) {
  RunNode(args, /*oltp=*/true, report);
}

}  // namespace perfbench
