// The IBG's node budget and its single-reader rule. The budget
// truncation decision and the retry-with-half fallback keep the head of
// the ranked candidate list; cost lookups memoize into mutable caches, so
// a second thread issuing memoizing reads must abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "ibg/ibg.h"
#include "tests/test_util.h"

namespace wfit {
namespace {

using wfit::testing::TestDb;

TEST(IbgNodeBudgetTest, ShedsTheTailOfTheRanking) {
  // Enough candidates on one table that a multi-predicate query produces a
  // deep node closure (every used index spawns a child per level).
  TestDb db;
  std::vector<IndexId> cands = {
      db.Ix("t1", {"a"}),      db.Ix("t1", {"b"}),
      db.Ix("t1", {"c"}),      db.Ix("t1", {"a", "b"}),
      db.Ix("t1", {"b", "a"}), db.Ix("t1", {"a", "c"}),
      db.Ix("t1", {"c", "a"}), db.Ix("t1", {"b", "c"})};
  Statement q = db.Bind(
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 200 "
      "AND b BETWEEN 0 AND 100 AND c = 3");
  // Sweep budgets from "sheds almost everything" (the retry-with-half
  // fallback path, possibly several halvings) to "fits exactly".
  bool saw_truncation = false;
  for (size_t budget : {1u, 2u, 3u, 5u, 9u, 17u, 33u, 1024u}) {
    IndexBenefitGraph ibg(q, db.optimizer(), cands, budget);
    const std::vector<IndexId>& kept = ibg.candidates();
    const std::vector<IndexId>& shed = ibg.truncated_candidates();
    EXPECT_LE(ibg.num_nodes(), budget) << "budget=" << budget;
    saw_truncation = saw_truncation || !shed.empty();
    // Shed + kept always partitions the input candidate list, and the
    // kept candidates are its head: callers rank by benefit, so the
    // budget sheds the least valuable ones.
    EXPECT_EQ(kept.size() + shed.size(), cands.size()) << "budget=" << budget;
    EXPECT_TRUE(std::equal(kept.begin(), kept.end(), cands.begin()))
        << "budget=" << budget;
  }
  EXPECT_TRUE(saw_truncation)
      << "the budget sweep must exercise the retry-with-half path";
}

TEST(IbgSingleReaderDeathTest, SecondThreadMemoizingReadAborts) {
  // Cost lookups memoize into mutable caches, so a second thread issuing
  // memoizing reads must abort.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TestDb db;
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 3 AND b = 4");
  std::vector<IndexId> cands = {db.Ix("t1", {"a"}), db.Ix("t1", {"b"})};
  EXPECT_DEATH(
      {
        IndexBenefitGraph ibg(q, db.optimizer(), cands);
        ibg.CostOf(1);  // claims the graph for this thread
        std::thread other([&] { ibg.CostOf(2); });
        other.join();
      },
      "memoizing reads from two threads");
}

}  // namespace
}  // namespace wfit
