// One private database world: catalog, index pool, cost model and what-if
// optimizer. Every tuner, and every replay that checks a tuner, gets its
// own world so that index ids are interned only by the tuner itself.
#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <memory>

#include "catalog/benchmark_schemas.h"
#include "optimizer/cost_model.h"
#include "optimizer/what_if.h"

namespace perfbench {

struct World {
  explicit World(double scale)
      : catalog(wfit::BuildBenchmarkCatalog(wfit::BenchmarkScale{scale})),
        pool(std::make_unique<wfit::IndexPool>(&catalog)),
        model(std::make_unique<wfit::CostModel>(&catalog, pool.get())),
        optimizer(std::make_unique<wfit::WhatIfOptimizer>(model.get())) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  wfit::Catalog catalog;
  std::unique_ptr<wfit::IndexPool> pool;
  std::unique_ptr<wfit::CostModel> model;
  std::unique_ptr<wfit::WhatIfOptimizer> optimizer;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
