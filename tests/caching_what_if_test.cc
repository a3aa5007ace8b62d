#include "optimizer/caching_what_if.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace wfit {
namespace {

using wfit::testing::TestDb;

TEST(CachingWhatIfTest, MissThenHitWithinOneStatement) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 100");
  CachingWhatIfOptimizer memo(&db.optimizer());
  memo.BeginStatement(&q);

  uint64_t base_before = db.optimizer().num_calls();
  PlanSummary first = memo.Optimize(q, IndexSet{a});
  PlanSummary second = memo.Optimize(q, IndexSet{a});
  EXPECT_EQ(db.optimizer().num_calls(), base_before + 1)
      << "the second probe must be served from the memo";
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.bypasses(), 0u);
  EXPECT_EQ(memo.num_calls(), 2u);
  EXPECT_DOUBLE_EQ(first.cost, second.cost);
  EXPECT_EQ(first.used, second.used);
}

TEST(CachingWhatIfTest, ValuesMatchTheBaseOptimizer) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  IndexId b = db.Ix("t1", {"b"});
  IndexId x = db.Ix("t2", {"x"});
  Statement q = db.Bind(
      "SELECT count(*) FROM t1, t2 WHERE t1.k = t2.fk AND t1.a = 5");
  CachingWhatIfOptimizer memo(&db.optimizer());
  memo.BeginStatement(&q);
  std::vector<IndexSet> configs = {IndexSet{}, IndexSet{a}, IndexSet{a, b},
                                   IndexSet{a, b, x}, IndexSet{x}};
  for (const IndexSet& c : configs) {
    PlanSummary direct = db.optimizer().Optimize(q, c);
    PlanSummary cached_cold = memo.Optimize(q, c);
    PlanSummary cached_warm = memo.Optimize(q, c);
    EXPECT_DOUBLE_EQ(direct.cost, cached_cold.cost) << c.ToString();
    EXPECT_DOUBLE_EQ(direct.cost, cached_warm.cost) << c.ToString();
    EXPECT_EQ(direct.used, cached_warm.used) << c.ToString();
  }
  EXPECT_EQ(memo.hits(), configs.size());
  EXPECT_EQ(memo.misses(), configs.size());
}

TEST(CachingWhatIfTest, NoStaleCostsAcrossStatements) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  // Same table, same index, different predicates: the costs differ, so a
  // stale cache entry would be observable.
  Statement q1 = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 100");
  Statement q2 = db.Bind("SELECT count(*) FROM t1 WHERE a = 7");
  double direct1 = db.optimizer().Cost(q1, IndexSet{a});
  double direct2 = db.optimizer().Cost(q2, IndexSet{a});
  ASSERT_NE(direct1, direct2) << "test needs distinguishable statements";

  CachingWhatIfOptimizer memo(&db.optimizer());
  memo.BeginStatement(&q1);
  EXPECT_DOUBLE_EQ(memo.Optimize(q1, IndexSet{a}).cost, direct1);
  EXPECT_GT(memo.scoped_entries(), 0u);

  memo.BeginStatement(&q2);
  EXPECT_EQ(memo.scoped_entries(), 0u) << "BeginStatement must clear tier 1";
  EXPECT_DOUBLE_EQ(memo.Optimize(q2, IndexSet{a}).cost, direct2)
      << "different predicates mean a different fingerprint: the cross tier "
         "must not serve q1's cost";

  // Back to q1: its second sighting admits it to the cross tier (filled by
  // this statement's probes)...
  memo.BeginStatement(&q1);
  EXPECT_DOUBLE_EQ(memo.Optimize(q1, IndexSet{a}).cost, direct1);
  // ...so the third sighting is served from it, with q1's (correct) cost.
  memo.BeginStatement(&q1);
  uint64_t misses_before = memo.misses();
  uint64_t cross_before = memo.cross_hits();
  EXPECT_DOUBLE_EQ(memo.Optimize(q1, IndexSet{a}).cost, direct1);
  EXPECT_EQ(memo.misses(), misses_before);
  EXPECT_EQ(memo.cross_hits(), cross_before + 1);
}

TEST(CachingWhatIfTest, CrossTierDisabledRestoresPerStatementSemantics) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  Statement q1 = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 100");
  CrossStatementCacheOptions off;
  off.max_templates = 0;
  CachingWhatIfOptimizer memo(&db.optimizer(), off);
  memo.BeginStatement(&q1);
  memo.Optimize(q1, IndexSet{a});
  memo.BeginStatement(&q1);  // same statement, re-scoped
  memo.Optimize(q1, IndexSet{a});
  EXPECT_EQ(memo.misses(), 2u) << "disabled tier must not survive re-scope";
  EXPECT_EQ(memo.cross_hits(), 0u);
  EXPECT_EQ(memo.cross_templates(), 0u);
}

TEST(CachingWhatIfTest, CrossTierServesRepeatedTemplates) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  // Two distinct Statement objects with identical structure: the realistic
  // repeated-template case (a re-bound prepared statement).
  Statement q1 = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 100");
  Statement q2 = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 100");
  ASSERT_EQ(q1.Fingerprint(), q2.Fingerprint());
  ASSERT_TRUE(SameCostShape(q1, q2));

  CachingWhatIfOptimizer memo(&db.optimizer());
  memo.BeginStatement(&q1);
  double cost1 = memo.Optimize(q1, IndexSet{a}).cost;
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.cross_templates(), 0u)
      << "second-touch admission: one sighting earns no entry";

  memo.BeginStatement(&q2);  // second sighting: admitted + filled
  memo.Optimize(q2, IndexSet{a});
  EXPECT_EQ(memo.cross_templates(), 1u);

  memo.BeginStatement(&q1);  // third sighting: served
  uint64_t base_before = db.optimizer().num_calls();
  double cost3 = memo.Optimize(q1, IndexSet{a}).cost;
  EXPECT_EQ(db.optimizer().num_calls(), base_before)
      << "the repeat must not reach the real optimizer";
  EXPECT_EQ(memo.cross_hits(), 1u);
  EXPECT_DOUBLE_EQ(cost1, cost3);
  // Within the same statement, the promoted entry is a statement-tier hit.
  memo.Optimize(q1, IndexSet{a});
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.cross_templates(), 1u) << "one template, seen three times";
}

TEST(CachingWhatIfTest, CrossTierLruEvictsLeastRecentTemplate) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  // Four structurally distinct templates (bound literals are not part of
  // the structure, but columns and selectivities are).
  std::vector<Statement> stmts = {
      db.Bind("SELECT count(*) FROM t1 WHERE a = 1"),
      db.Bind("SELECT count(*) FROM t1 WHERE b = 2"),
      db.Bind("SELECT count(*) FROM t1 WHERE c = 3"),
      db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 50"),
  };
  ASSERT_NE(stmts[0].Fingerprint(), stmts[3].Fingerprint());
  CrossStatementCacheOptions opts;
  opts.max_templates = 2;
  CachingWhatIfOptimizer memo(&db.optimizer(), opts);
  // Two passes: the first leaves second-touch footprints, the second
  // admits every template in order — overflowing the 2-entry LRU.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Statement& q : stmts) {
      memo.BeginStatement(&q);
      memo.Optimize(q, IndexSet{a});
    }
  }
  EXPECT_EQ(memo.cross_templates(), 2u) << "LRU bound must hold";
  // stmts[3] and stmts[2] are resident; stmts[0] was evicted first.
  memo.BeginStatement(&stmts[3]);
  memo.Optimize(stmts[3], IndexSet{a});
  EXPECT_EQ(memo.cross_hits(), 1u);
  memo.BeginStatement(&stmts[0]);
  uint64_t misses_before = memo.misses();
  memo.Optimize(stmts[0], IndexSet{a});
  EXPECT_EQ(memo.misses(), misses_before + 1) << "evicted template is cold";
}

TEST(CachingWhatIfTest, PerTemplateConfigBoundStopsInsertsNotServing) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  IndexId b = db.Ix("t1", {"b"});
  IndexId c = db.Ix("t1", {"c"});
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 3 AND b = 4");
  CrossStatementCacheOptions opts;
  opts.max_configs_per_template = 2;
  CachingWhatIfOptimizer memo(&db.optimizer(), opts);
  memo.BeginStatement(&q);  // first sighting: footprint only
  memo.BeginStatement(&q);  // admitted; probes below fill the entry
  memo.Optimize(q, IndexSet{a});
  memo.Optimize(q, IndexSet{b});
  memo.Optimize(q, IndexSet{c});  // over the per-template bound
  memo.BeginStatement(&q);        // re-scope: tier 1 cold, cross tier warm
  uint64_t base_before = db.optimizer().num_calls();
  memo.Optimize(q, IndexSet{a});
  memo.Optimize(q, IndexSet{b});
  EXPECT_EQ(db.optimizer().num_calls(), base_before)
      << "bounded template still serves its resident configurations";
  EXPECT_EQ(memo.cross_hits(), 2u);
  memo.Optimize(q, IndexSet{c});
  EXPECT_EQ(db.optimizer().num_calls(), base_before + 1)
      << "the configuration past the bound was not retained";
}

TEST(CachingWhatIfTest, ProbesOutsideTheScopedStatementBypass) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  Statement scoped = db.Bind("SELECT count(*) FROM t1 WHERE a = 1");
  Statement other = db.Bind("SELECT count(*) FROM t1 WHERE a = 2");
  CachingWhatIfOptimizer memo(&db.optimizer());
  memo.BeginStatement(&scoped);

  double direct = db.optimizer().Cost(other, IndexSet{a});
  EXPECT_DOUBLE_EQ(memo.Optimize(other, IndexSet{a}).cost, direct);
  EXPECT_DOUBLE_EQ(memo.Optimize(other, IndexSet{a}).cost, direct);
  EXPECT_EQ(memo.bypasses(), 2u) << "non-scoped probes never cache";
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), 0u);
}

TEST(CachingWhatIfTest, CostModelPassesThroughToTheBase) {
  TestDb db;
  CachingWhatIfOptimizer memo(&db.optimizer());
  EXPECT_EQ(&memo.cost_model(), &db.optimizer().cost_model());
}

TEST(CachingWhatIfTest, ConcurrentProbesAreConsistent) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  IndexId b = db.Ix("t1", {"b"});
  IndexId c = db.Ix("t1", {"c"});
  Statement q = db.Bind(
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150 AND c = 3");
  std::vector<IndexSet> configs = {IndexSet{},     IndexSet{a},
                                   IndexSet{b},    IndexSet{c},
                                   IndexSet{a, b}, IndexSet{a, c},
                                   IndexSet{b, c}, IndexSet{a, b, c}};
  std::vector<double> expected;
  for (const IndexSet& cfg : configs) {
    expected.push_back(db.optimizer().Cost(q, cfg));
  }

  CachingWhatIfOptimizer memo(&db.optimizer());
  memo.BeginStatement(&q);
  constexpr size_t kThreads = 5;
  constexpr size_t kProbes = 400;
  std::vector<double> got(kProbes);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < kProbes; i += kThreads) {
        got[i] = memo.Optimize(q, configs[i % configs.size()]).cost;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < kProbes; ++i) {
    EXPECT_DOUBLE_EQ(got[i], expected[i % configs.size()]) << "probe " << i;
  }
  EXPECT_EQ(memo.hits() + memo.misses(), kProbes);
  // Duplicate concurrent computation of a not-yet-inserted key is allowed,
  // but bounded by the thread count per key in practice; leave generous
  // slack (5 threads x 8 keys) so the assertion never flakes.
  EXPECT_GE(memo.hits(), kProbes - kThreads * configs.size());
}

}  // namespace
}  // namespace wfit
