// paper_trace: the paper's evaluation trace (Sec. 6.1: 8 phases x 200
// statements over the four datasets, generated as the figure benches do)
// replayed straight into one Wfit at paper defaults (idxCnt 40, stateCnt
// 500, histSize 100), with no votes, no service, no WAL and no wire.
// Closed loop, one thread. The run's seed seeds WFIT's randomized
// partition search (Fig. 7), so each seed takes its own tuning path
// through the same trace.
//
// Untraced run: whole passes over the trace until the time is up, each on
// a fresh tuner; every pass must reproduce the first pass's trajectory.
// Throughput sums, over 50-statement chunks, each chunk's median time
// across passes, which filters out interference from other processes.
// Afterwards, tuning quality by Fig. 12's recipe: OPT over the offline
// stateCnt-500 partition, divided by WFIT's totWork.
//
// Traced run: two tuners in separate worlds replay the same trace in
// lockstep, 50 statements at a time, one untraced and one traced, taking
// turns at going first. Their trajectories must be bit-identical, and the
// per-chunk time ratio gives the tracing overhead from many pairs.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/opt.h"
#include "core/wfit.h"
#include "harness/offline_tuning.h"
#include "harness/total_work.h"
#include "obs/trace.h"
#include "persist/snapshot.h"
#include "workload/benchmark_trace.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

using wfit::IndexSet;
using wfit::Wfit;
using wfit::WfitOptions;
using wfit::Workload;

constexpr double kPaperScale = 1.0;
constexpr int kSetups = 21;
constexpr size_t kChunk = 50;

WfitOptions PaperOptions(uint64_t seed) {
  WfitOptions options;
  options.seed = MixSeed(seed, 0x77666974ull);
  options.candidates.idx_cnt = 40;
  options.candidates.state_cnt = 500;
  options.candidates.hist_size = 100;
  return options;
}

struct PaperEnv {
  std::unique_ptr<World> world;
  Workload workload;
};

PaperEnv BuildEnv() {
  PaperEnv env;
  env.world = std::make_unique<World>(kPaperScale);
  const wfit::TraceOptions trace;  // the paper's 8 phases x 200 statements
  env.workload =
      wfit::ToWorkload(wfit::GenerateBenchmarkTrace(env.world->catalog, trace));
  return env;
}

/// One statement through the Tuner API, timed by the benchmark's own
/// clock and spans. Returns the analyze and recommendation times in us.
std::pair<double, double> Step(Wfit* tuner, const wfit::Statement& q,
                               std::vector<IndexSet>* trajectory) {
  const Clock::time_point t0 = Clock::now();
  {
    wfit::obs::SpanGuard span("bench.analyze");
    tuner->AnalyzeQuery(q);
  }
  const Clock::time_point t1 = Clock::now();
  {
    wfit::obs::SpanGuard span("bench.recommendation");
    trajectory->push_back(tuner->Recommendation());
  }
  const Clock::time_point t2 = Clock::now();
  return {MicrosBetween(t0, t1), MicrosBetween(t1, t2)};
}

/// Moves every recorded span into `store`. Called after each statement:
/// a thread's ring holds 4096 spans, and this thread is the only writer,
/// so collecting and then clearing loses nothing in between.
void DrainSingleWriter(SpanStore* store) {
  const wfit::obs::TraceCounters before = wfit::obs::CollectTraceCounters();
  const size_t added = store->Absorb(wfit::obs::CollectSpans());
  if (before.recorded > added) store->AddLost(before.recorded - added);
  wfit::obs::ClearTraceForTest();
}

/// Bytes of one full snapshot of `tuner`'s state, written to `dir`: the
/// disk footprint of keeping this tuner durably.
uint64_t SnapshotBytes(const Wfit& tuner, const wfit::IndexPool& pool,
                       uint64_t analyzed, const std::string& dir,
                       Report* report) {
  RemoveTree(dir);
  wfit::persist::SnapshotMeta meta;
  meta.analyzed = analyzed;
  auto written = wfit::persist::WriteSnapshot(dir, tuner, pool, meta);
  if (!written.ok()) {
    report->Fail("paper_trace: snapshot write failed: " +
                 written.status().ToString());
  }
  const uint64_t bytes = TreeBytes(dir);
  RemoveTree(dir);
  return bytes;
}

void UntracedRun(const RunArgs& args, PaperEnv& env, Report* report) {
  Samples analyze_us;
  std::vector<IndexSet> first;
  const size_t chunks = (env.workload.size() + kChunk - 1) / kChunk;
  std::vector<std::vector<double>> chunk_us(chunks);
  size_t statements = 0;
  int passes = 0;
  const Clock::time_point start = Clock::now();
  while (passes == 0 || SecondsSince(start) < args.seconds) {
    auto tuner = std::make_unique<Wfit>(env.world->pool.get(),
                                        env.world->optimizer.get(),
                                        IndexSet{}, PaperOptions(args.seed));
    std::vector<IndexSet> trajectory;
    trajectory.reserve(env.workload.size());
    for (size_t c = 0; c < chunks; ++c) {
      const Clock::time_point t0 = Clock::now();
      for (size_t i = c * kChunk;
           i < std::min(env.workload.size(), (c + 1) * kChunk); ++i) {
        analyze_us.Add(Step(tuner.get(), env.workload[i], &trajectory).first);
      }
      chunk_us[c].push_back(MicrosBetween(t0, Clock::now()));
    }
    statements += env.workload.size();
    if (passes == 0) {
      first = std::move(trajectory);
    } else if (trajectory != first) {
      report->Fail("paper_trace: pass " + std::to_string(passes) +
                   " diverged from the first pass's trajectory");
    }
    ++passes;
  }
  report->attempted = statements;
  double trace_us = 0.0;
  for (const std::vector<double>& c : chunk_us) trace_us += Median(c);
  report->Add("stmts_per_s",
              static_cast<double>(env.workload.size()) / (trace_us / 1e6),
              "stmt/s", statements,
              "chunk medians over " + std::to_string(passes) + " passes");
  report->AddP50("analyze", analyze_us, "us");

  // Tuning quality (Fig. 12 recipe), computed after the timed passes.
  const Clock::time_point q0 = Clock::now();
  wfit::harness::OfflineTuningOptions offline;
  offline.idx_cnt = 40;
  offline.state_cnt = 500;
  const wfit::harness::OfflinePartitionResult fixed =
      wfit::harness::ComputeFixedPartition(env.workload,
                                           env.world->pool.get(),
                                           env.world->optimizer.get(),
                                           offline);
  wfit::OptimalPlanner planner(env.world->pool.get(),
                               env.world->optimizer.get());
  const wfit::OptimalSchedule opt =
      planner.Solve(env.workload, fixed.partition, IndexSet{});
  wfit::TotalWorkMeter meter(env.world->optimizer.get(), IndexSet{});
  for (size_t i = 0; i < env.workload.size(); ++i) {
    meter.Step(env.workload[i], first[i]);
  }
  const double ratio = opt.total_work / meter.total();
  if (!(ratio > 0.3 && ratio < 1.5)) {
    report->Fail("paper_trace: totwork_vs_opt " + std::to_string(ratio) +
                 " is outside (0.3, 1.5)");
  }
  report->Add("totwork_vs_opt", ratio, "ratio", env.workload.size(),
              "OPT / WFIT totWork");
  std::cout << "paper_trace: " << passes << " passes, OPT check took "
            << SecondsSince(q0) << " s, WFIT totWork " << meter.total()
            << ", OPT " << opt.total_work << "\n";
}

void TracedRun(const RunArgs& args, PaperEnv& env, Report* report) {
  PaperEnv traced_env = BuildEnv();
  SpanStore store;
  Samples analyze_us;  // latencies from the untraced tuner
  Samples read_us;
  Samples lag_ms;
  uint64_t snapshot_bytes = 0;
  std::vector<double> overhead_pct;
  double traced_window_us = 0.0;
  uint64_t repartitions = 0;
  wfit::WhatIfCacheCounters cache;
  const uint64_t calls_before = traced_env.world->optimizer->num_calls();
  size_t statements = 0;
  int passes = 0;
  wfit::obs::ClearTraceForTest();
  const Clock::time_point start = Clock::now();
  while (passes == 0 || SecondsSince(start) < args.seconds) {
    Wfit plain(env.world->pool.get(), env.world->optimizer.get(),
               IndexSet{}, PaperOptions(args.seed));
    Wfit traced(traced_env.world->pool.get(),
                traced_env.world->optimizer.get(), IndexSet{},
                PaperOptions(args.seed));
    std::vector<IndexSet> plain_traj;
    std::vector<IndexSet> traced_traj;
    const Workload& w = env.workload;
    for (size_t lo = 0; lo < w.size(); lo += kChunk) {
      const size_t hi = std::min(w.size(), lo + kChunk);
      double plain_us = 0.0;
      double traced_us = 0.0;
      auto run_plain = [&] {
        for (size_t i = lo; i < hi; ++i) {
          const auto [a, r] = Step(&plain, w[i], &plain_traj);
          plain_us += a + r;
          analyze_us.Add(a);
          read_us.Add(r);
          lag_ms.Add((a + r) / 1e3);
        }
      };
      auto run_traced = [&] {
        for (size_t i = lo; i < hi; ++i) {
          wfit::obs::SetTracingEnabled(true);
          const auto [a, r] = Step(&traced, traced_env.workload[i],
                                   &traced_traj);
          wfit::obs::SetTracingEnabled(false);
          traced_us += a + r;
          DrainSingleWriter(&store);
        }
      };
      if ((lo / kChunk) % 2 == 0) {
        run_plain();
        run_traced();
      } else {
        run_traced();
        run_plain();
      }
      overhead_pct.push_back(100.0 * (traced_us / plain_us - 1.0));
      traced_window_us += traced_us;
    }
    if (plain_traj != traced_traj) {
      report->Fail("paper_trace: traced and untraced trajectories differ");
    }
    snapshot_bytes = SnapshotBytes(plain, *env.world->pool, w.size(),
                                   args.work_dir + "/paper_snapshot", report);
    repartitions += traced.RepartitionCount();
    const wfit::WhatIfCacheCounters c = traced.WhatIfCache();
    cache.hits += c.hits;
    cache.misses += c.misses;
    cache.cross_hits += c.cross_hits;
    statements += w.size();
    ++passes;
  }
  report->attempted = statements;

  CoreLayerInputs layers;
  layers.store = &store;
  layers.analyze_span = "bench.analyze";
  layers.window_ms = traced_window_us / 1e3;
  layers.overhead_pct = std::move(overhead_pct);
  layers.statements = statements;
  layers.repartitions = repartitions;
  layers.whatif_calls =
      traced_env.world->optimizer->num_calls() - calls_before;
  layers.cache_hits = cache.hits + cache.cross_hits;
  layers.cache_probes = cache.probes();
  AddCoreLayers(layers, report);
  AddNoStatementPathLayers(report);
  // Without a service the tuner accepts a statement by analyzing it, and
  // the recommendation reflects it once Recommendation() returns.
  report->AddP99("analyze", analyze_us, "us");
  report->AddP50("ack", analyze_us, "us");
  report->AddP99("ack", analyze_us, "us");
  report->AddP50("lag", lag_ms, "ms");
  report->AddP99("lag", lag_ms, "ms");
  report->AddP50("read", read_us, "us");
  report->AddP99("read", read_us, "us");
  report->Add("disk_bytes_per_stmt",
              static_cast<double>(snapshot_bytes) /
                  static_cast<double>(env.workload.size()),
              "B", env.workload.size(), "one full snapshot of the final state");
}

}  // namespace

void RunPaperTrace(const RunArgs& args, Report* report) {
  std::vector<double> setup_s;
  PaperEnv env;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    env = BuildEnv();
    setup_s.push_back(SecondsSince(t0));
  }
  if (args.trace) {
    TracedRun(args, env, report);
    return;
  }
  UntracedRun(args, env, report);
  report->Add("rss_peak_mb", PeakRssMb(), "MB", 1);
  report->Add("setup_s", Median(setup_s), "s", setup_s.size(),
              "median of repeated set-ups");
}

}  // namespace perfbench
