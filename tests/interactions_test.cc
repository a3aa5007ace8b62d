#include "ibg/interactions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "tests/test_util.h"

namespace wfit {
namespace {

using testing::TestDb;

TEST(InteractionsTest, DoiIsSymmetric) {
  TestDb db;
  Statement q = db.Bind(
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 200 AND b BETWEEN 0 "
      "AND 120");
  std::vector<IndexId> cands = {db.Ix("t1", {"a"}), db.Ix("t1", {"b"}),
                                db.Ix("t1", {"a", "b"})};
  IndexBenefitGraph ibg(q, db.optimizer(), cands);
  for (size_t i = 0; i < cands.size(); ++i) {
    for (size_t j = 0; j < cands.size(); ++j) {
      if (i == j) continue;
      EXPECT_NEAR(
          DegreeOfInteraction(ibg, static_cast<int>(i), static_cast<int>(j)),
          DegreeOfInteraction(ibg, static_cast<int>(j), static_cast<int>(i)),
          1e-9);
    }
  }
}

TEST(InteractionsTest, IntersectablePairInteracts) {
  TestDb db;
  Statement q = db.Bind(
      "SELECT d FROM t1 WHERE a BETWEEN 0 AND 200 AND b BETWEEN 0 AND 100");
  IndexId ia = db.Ix("t1", {"a"});
  IndexId ib = db.Ix("t1", {"b"});
  IndexBenefitGraph ibg(q, db.optimizer(), {ia, ib});
  double doi = DegreeOfInteraction(ibg, ibg.BitOf(ia), ibg.BitOf(ib));
  EXPECT_GT(doi, 0.0);
}

TEST(InteractionsTest, IndicesOnDifferentTablesOfSeparateQueriesAreIndependent) {
  TestDb db;
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 5");
  IndexId ia = db.Ix("t1", {"a"});
  IndexId ix = db.Ix("t2", {"x"});
  IndexBenefitGraph ibg(q, db.optimizer(), {ia, ix});
  EXPECT_DOUBLE_EQ(DegreeOfInteraction(ibg, ibg.BitOf(ia), ibg.BitOf(ix)),
                   0.0);
}

TEST(InteractionsTest, RedundantIndexesInteract) {
  // ix(a) and ix(a,b) serve the same predicate: the benefit of one drops
  // when the other is present — a (negative-type) interaction.
  TestDb db;
  Statement q = db.Bind(
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 500 AND b = 3");
  IndexId ia = db.Ix("t1", {"a"});
  IndexId iab = db.Ix("t1", {"a", "b"});
  IndexBenefitGraph ibg(q, db.optimizer(), {ia, iab});
  EXPECT_GT(DegreeOfInteraction(ibg, ibg.BitOf(ia), ibg.BitOf(iab)), 0.0);
}

TEST(InteractionsTest, ComputeInteractionsListsPositivePairsOnly) {
  TestDb db;
  Statement q = db.Bind(
      "SELECT d FROM t1 WHERE a BETWEEN 0 AND 200 AND b BETWEEN 0 AND 100");
  std::vector<IndexId> cands = {db.Ix("t1", {"a"}), db.Ix("t1", {"b"}),
                                db.Ix("t2", {"x"})};
  IndexBenefitGraph ibg(q, db.optimizer(), cands);
  std::vector<InteractionEntry> entries = ComputeInteractions(ibg);
  for (const InteractionEntry& e : entries) {
    EXPECT_GT(e.doi, 0.0);
    EXPECT_NE(e.a, db.Ix("t2", {"x"}));
    EXPECT_NE(e.b, db.Ix("t2", {"x"}));
  }
  // The a/b pair must be among them.
  bool found = false;
  for (const InteractionEntry& e : entries) {
    if ((e.a == cands[0] && e.b == cands[1]) ||
        (e.a == cands[1] && e.b == cands[0])) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(InteractionsTest, DoiMatchesBruteForceDefinition) {
  // doi(a,b) = max_X |benefit({a}, X) − benefit({a}, X ∪ {b})| via direct
  // what-if arithmetic over all contexts.
  TestDb db;
  Statement q = db.Bind(
      "SELECT d FROM t1 WHERE a BETWEEN 0 AND 300 AND b BETWEEN 0 AND 150");
  std::vector<IndexId> cands = {db.Ix("t1", {"a"}), db.Ix("t1", {"b"}),
                                db.Ix("t1", {"c"})};
  IndexBenefitGraph ibg(q, db.optimizer(), cands);
  int bit_a = ibg.BitOf(cands[0]);
  int bit_b = ibg.BitOf(cands[1]);
  double doi = DegreeOfInteraction(ibg, bit_a, bit_b);

  double brute = 0.0;
  const Mask ab = (Mask{1} << bit_a) | (Mask{1} << bit_b);
  const Mask full = static_cast<Mask>((1u << cands.size()) - 1);
  for (Mask x = 0; x <= full; ++x) {
    if ((x & ab) != 0) continue;
    auto cost = [&](Mask m) { return db.optimizer().Cost(q, ibg.ToSet(m)); };
    double v = cost(x) - cost(x | (Mask{1} << bit_a)) -
               cost(x | (Mask{1} << bit_b)) + cost(x | ab);
    brute = std::max(brute, std::abs(v));
  }
  EXPECT_NEAR(doi, brute, 1e-6 * std::max(1.0, brute));
}

TEST(InteractionsTest, DoiMatchesCostOfEnumerationBeyondTheDenseDomain) {
  // 13-16 plan-relevant indices: pairs with one or both bits above the
  // IBG's dense enumeration domain read its per-bit slabs (and descents).
  // The reference is the definition enumerated through CostOf, in the same
  // context order and expression order, so the doubles match exactly.
  TestDb db;
  Statement q = db.Bind(testing::kBeyondDomainJoin);
  const std::vector<IndexId> wide = testing::BeyondDomainCandidates(db);
  std::vector<int> relevant_counts;
  for (size_t take = 17; take <= 20; ++take) {
    std::vector<IndexId> cands(wide.begin(), wide.begin() + take);
    IndexBenefitGraph ibg(q, db.optimizer(), cands);
    const Mask relevant = ibg.relevant_used();
    relevant_counts.push_back(PopCount(relevant));
    for (int a = 0; a < static_cast<int>(take); ++a) {
      for (int b = 0; b < static_cast<int>(take); ++b) {
        if (a == b) continue;
        const Mask ma = Mask{1} << a;
        const Mask mb = Mask{1} << b;
        double brute = 0.0;
        if ((relevant & ma) != 0 && (relevant & mb) != 0) {
          const Mask universe =
              KeepLowestBits(relevant & ~(ma | mb),
                             IndexBenefitGraph::kMaxEnumerationBits - 2);
          for (SubmaskIterator it(universe); !it.done(); it.Next()) {
            const Mask x = it.mask();
            double v = ibg.CostOf(x) - ibg.CostOf(x | ma) -
                       ibg.CostOf(x | mb) + ibg.CostOf(x | ma | mb);
            brute = std::max(brute, std::abs(v));
          }
        }
        EXPECT_EQ(DegreeOfInteraction(ibg, a, b), brute)
            << "take=" << take << " a=" << a << " b=" << b;
      }
    }
  }
  EXPECT_EQ(relevant_counts, (std::vector<int>{13, 14, 15, 16}));
}

TEST(InteractionsDeathTest, SelfInteractionAborts) {
  TestDb db;
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 1");
  IndexBenefitGraph ibg(q, db.optimizer(), {db.Ix("t1", {"a"})});
  EXPECT_DEATH({ (void)DegreeOfInteraction(ibg, 0, 0); }, "itself");
}

}  // namespace
}  // namespace wfit
