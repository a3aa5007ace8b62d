// Statement analysis across the parts of a partitioned tuner: the
// recommendation trajectory does not depend on the state of the what-if
// memo (disabled, cold or warm), and the per-part IBGs of one statement
// share configuration probes through it.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "core/wfa_plus.h"
#include "core/wfit.h"
#include "tests/test_util.h"

namespace wfit {
namespace {

using wfit::testing::TestDb;

WfitOptions FastOptions() {
  WfitOptions options;
  options.candidates.idx_cnt = 8;
  options.candidates.state_cnt = 64;
  options.candidates.hist_size = 50;
  options.candidates.creation_penalty_factor = 1e-6;
  return options;
}

/// Cycles 10 statement templates, so the cross-statement tier warms from
/// the second cycle on.
Workload BuildWorkload(TestDb& db, size_t n) {
  const char* shapes[] = {
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150",
      "SELECT count(*) FROM t1 WHERE b BETWEEN 100 AND 220",
      "SELECT count(*) FROM t1, t2 WHERE t1.k = t2.fk AND t1.a = 5",
      "SELECT count(*) FROM t2 WHERE x BETWEEN 10 AND 40",
      "UPDATE t1 SET d = 1 WHERE a = 77",
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150 AND c = 3",
      "SELECT count(*) FROM t3 WHERE v = 9",
      "UPDATE t2 SET y = 2 WHERE x = 17",
      "SELECT count(*) FROM t2 WHERE x = 17 AND y = 3",
      "SELECT count(*) FROM t1 WHERE c = 42",
  };
  Workload w;
  for (size_t i = 0; i < n; ++i) {
    w.push_back(db.Bind(shapes[i % (sizeof(shapes) / sizeof(shapes[0]))]));
  }
  return w;
}

/// Runs `tuner` over `w` with feedback interleaved after the keyed
/// statements, recording the recommendation after every statement.
std::vector<IndexSet> Trajectory(
    Tuner* tuner, const Workload& w,
    const std::map<size_t, std::pair<IndexSet, IndexSet>>& feedback) {
  std::vector<IndexSet> out;
  out.reserve(w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    tuner->AnalyzeQuery(w[i]);
    auto it = feedback.find(i);
    if (it != feedback.end()) {
      tuner->Feedback(it->second.first, it->second.second);
    }
    out.push_back(tuner->Recommendation());
  }
  return out;
}

TEST(ParallelAnalysisTest, WfitTrajectoryIdenticalColdWarmOrDisabledCache) {
  // The cross-statement what-if cache is purely a probe-avoidance layer:
  // with it disabled, cold, or pre-warmed by a whole prior workload, the
  // recommendation trajectory must be bit-for-bit identical (costs are a
  // pure function of statement and configuration).
  TestDb db;
  Workload w = BuildWorkload(db, 200);
  std::map<size_t, std::pair<IndexSet, IndexSet>> feedback = {
      {60, {IndexSet{db.Ix("t1", {"b"})}, IndexSet{}}},
      {140, {IndexSet{}, IndexSet{db.Ix("t1", {"a"})}}},
  };

  WfitOptions disabled_options = FastOptions();
  disabled_options.cross_cache.max_templates = 0;
  Wfit disabled(&db.pool(), &db.optimizer(), IndexSet{}, disabled_options);
  std::vector<IndexSet> reference = Trajectory(&disabled, w, feedback);
  EXPECT_EQ(disabled.WhatIfCache().cross_hits, 0u);

  Wfit cold(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  std::vector<IndexSet> got_cold = Trajectory(&cold, w, feedback);
  EXPECT_GT(cold.WhatIfCache().cross_hits, 0u);
  ASSERT_EQ(got_cold.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(got_cold[i], reference[i])
        << "cold-cache divergence at statement " << i;
  }

  // The workload cycles 10 templates, so the "cold" run above is served by
  // a warm tier from the second cycle onward — the comparison against the
  // disabled run covers cold, warming, and warm statements alike. Assert
  // the tier really carried the repeats.
  EXPECT_GT(cold.WhatIfCache().cross_hit_rate(), 0.2)
      << "repeated templates must be served by the cross tier";
}

TEST(ParallelAnalysisTest, MemoHitsAcrossPartsOfOneStatement) {
  TestDb db;
  // Two parts over the same table guarantee overlapping probe keys within
  // one statement (at minimum the per-part IBG leaves), so the memo must
  // register hits while the trajectory stays correct.
  std::vector<IndexSet> partition = {
      IndexSet{db.Ix("t1", {"a"})},
      IndexSet{db.Ix("t1", {"b"})},
      IndexSet{db.Ix("t1", {"c"})},
  };
  Workload w = BuildWorkload(db, 30);
  WfaPlus tuner(&db.pool(), &db.optimizer(), partition, IndexSet{});
  for (const Statement& q : w) tuner.AnalyzeQuery(q);
  WhatIfCacheCounters cache = tuner.WhatIfCache();
  EXPECT_GT(cache.misses, 0u);
  EXPECT_GT(cache.hits, 0u)
      << "per-part IBGs of one statement share configuration probes";
  EXPECT_GT(cache.hit_rate(), 0.0);
}

}  // namespace
}  // namespace wfit
