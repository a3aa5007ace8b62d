// Shared fixtures: a small deterministic catalog with three tables plus
// fully wired cost model / what-if optimizer / binder. Kept intentionally
// tiny so exhaustive property checks (all subsets, all schedules) stay fast.
#ifndef WFIT_TESTS_TEST_UTIL_H_
#define WFIT_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/index.h"
#include "optimizer/cost_model.h"
#include "optimizer/what_if.h"
#include "workload/binder.h"
#include "workload/statement.h"

namespace wfit::testing {

/// A self-contained database environment. Non-movable: internal components
/// hold pointers to each other.
class TestDb {
 public:
  TestDb() : TestDb(CostModelOptions{}) {}

  explicit TestDb(const CostModelOptions& cost_options) {
    TableInfo t1;
    t1.dataset = "test";
    t1.name = "t1";
    t1.row_count = 1000000;
    t1.columns = {
        MakeCol("k", 1000000, 8, 1, 1000000),
        MakeCol("a", 10000, 8, 0, 10000),
        MakeCol("b", 5000, 8, 0, 5000),
        MakeCol("c", 100, 4, 0, 99),
        MakeCol("d", 1000000, 8, 0, 1000000),
    };
    WFIT_CHECK(catalog_.AddTable(std::move(t1)).ok());

    TableInfo t2;
    t2.dataset = "test";
    t2.name = "t2";
    t2.row_count = 100000;
    t2.columns = {
        MakeCol("fk", 100000, 8, 1, 1000000),
        MakeCol("x", 1000, 8, 0, 1000),
        MakeCol("y", 50, 4, 0, 49),
    };
    WFIT_CHECK(catalog_.AddTable(std::move(t2)).ok());

    TableInfo t3;
    t3.dataset = "test";
    t3.name = "t3";
    t3.row_count = 500;
    t3.columns = {
        MakeCol("id", 500, 8, 1, 500),
        MakeCol("v", 100, 8, 0, 100),
    };
    WFIT_CHECK(catalog_.AddTable(std::move(t3)).ok());

    pool_ = std::make_unique<IndexPool>(&catalog_);
    model_ = std::make_unique<CostModel>(&catalog_, pool_.get(), cost_options);
    optimizer_ = std::make_unique<WhatIfOptimizer>(model_.get());
    binder_ = std::make_unique<Binder>(&catalog_);
  }

  TestDb(const TestDb&) = delete;
  TestDb& operator=(const TestDb&) = delete;

  Catalog& catalog() { return catalog_; }
  IndexPool& pool() { return *pool_; }
  CostModel& model() { return *model_; }
  WhatIfOptimizer& optimizer() { return *optimizer_; }
  Binder& binder() { return *binder_; }

  /// Parses + binds, aborting on error (tests supply valid SQL).
  Statement Bind(const std::string& sql) {
    auto bound = binder_->BindSql(sql);
    WFIT_CHECK(bound.ok(), bound.status().ToString());
    return std::move(bound).value();
  }

  /// Interns an index like Ix("t1", {"a", "b"}).
  IndexId Ix(const std::string& table, const std::vector<std::string>& cols) {
    auto tid = catalog_.FindTable(table);
    WFIT_CHECK(tid.ok(), tid.status().ToString());
    IndexDef def;
    def.table = *tid;
    for (const std::string& c : cols) {
      auto col = catalog_.FindColumn(*tid, c);
      WFIT_CHECK(col.ok(), col.status().ToString());
      def.columns.push_back(*col);
    }
    return pool_->Intern(def);
  }

 private:
  static ColumnInfo MakeCol(std::string name, uint64_t distinct,
                            uint32_t width, double lo, double hi) {
    ColumnInfo c;
    c.name = std::move(name);
    c.distinct_values = distinct;
    c.width_bytes = width;
    c.min_value = lo;
    c.max_value = hi;
    return c;
  }

  Catalog catalog_;
  std::unique_ptr<IndexPool> pool_;
  std::unique_ptr<CostModel> model_;
  std::unique_ptr<WhatIfOptimizer> optimizer_;
  std::unique_ptr<Binder> binder_;
};

/// 25 single- and two-column candidates over t1 and t2. Over a prefix of
/// 17-20 of them, kBeyondDomainJoin's IBG has 13-16 plan-relevant indices,
/// more than the IBG's dense enumeration domain (kMaxEnumerationBits).
inline std::vector<IndexId> BeyondDomainCandidates(TestDb& db) {
  std::vector<IndexId> out;
  const std::vector<std::string> t1 = {"a", "b", "c", "k"};
  const std::vector<std::string> t2 = {"x", "y", "fk"};
  for (const std::string& x : t1) out.push_back(db.Ix("t1", {x}));
  for (const std::string& x : t1) {
    for (const std::string& y : t1) {
      if (x != y) out.push_back(db.Ix("t1", {x, y}));
    }
  }
  for (const std::string& x : t2) out.push_back(db.Ix("t2", {x}));
  for (const std::string& x : t2) {
    for (const std::string& y : t2) {
      if (x != y && out.size() < 25) out.push_back(db.Ix("t2", {x, y}));
    }
  }
  return out;
}

inline constexpr const char* kBeyondDomainJoin =
    "SELECT count(*) FROM t1, t2 WHERE t1.k = t2.fk AND t1.a BETWEEN 0 AND "
    "300 AND t1.b BETWEEN 0 AND 150 AND t1.c = 3 AND t2.x BETWEEN 0 AND 30 "
    "AND t2.y = 4";

}  // namespace wfit::testing

#endif  // WFIT_TESTS_TEST_UTIL_H_
