#include "ibg/ibg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>

#include "obs/trace.h"

namespace wfit {

namespace {

/// Builds `set` from `mask` over `candidates` reusing `set`'s capacity.
void ToSetInto(const std::vector<IndexId>& candidates, Mask mask,
               IndexSet* set) {
  set->clear();
  Mask rest = mask;
  while (rest != 0) {
    int bit = LowestBit(rest);
    rest &= rest - 1;
    set->Add(candidates[static_cast<size_t>(bit)]);
  }
}

}  // namespace

IndexBenefitGraph::IndexBenefitGraph(const Statement& q,
                                     const WhatIfOptimizer& optimizer,
                                     std::vector<IndexId> candidates,
                                     size_t max_nodes)
    : candidates_(std::move(candidates)) {
  WFIT_CHECK(candidates_.size() <= 25, "IBG: too many candidates for a mask");
  WFIT_CHECK(max_nodes >= 1, "IBG: node budget must allow the root");
  {
    obs::StageTimer timer(obs::Stage::kIbgBuild);
    obs::SpanGuard span("ibg.build");
    while (!TryBuild(q, optimizer, max_nodes, &build_calls_)) {
      // Budget exceeded: shed the tail half of the candidate list (callers
      // rank by benefit) and rebuild.
      size_t keep = candidates_.size() / 2;
      truncated_.insert(truncated_.end(), candidates_.begin() + keep,
                        candidates_.end());
      candidates_.resize(keep);
    }
    if (span.trace_id() != 0) {
      span.SetDetail(std::to_string(nodes_.size()) + " nodes, " +
                     std::to_string(build_calls_) + " probes");
    }
  }
}

bool IndexBenefitGraph::TryBuild(const Statement& q,
                                 const WhatIfOptimizer& optimizer,
                                 size_t max_nodes, uint64_t* calls) {
  const size_t n = candidates_.size();
  // Closure bound: the graph can never exceed min(2^n, budget + 1) nodes
  // (the level that would cross the budget is never probed).
  const size_t bound = std::min(size_t{1} << n, max_nodes + 1);
  nodes_.Reset(std::min(bound, size_t{1} << 12));
  cost_cache_.Reset(64);
  enum_ready_ = false;
  bit_of_.clear();
  relevant_used_ = 0;
  for (size_t i = 0; i < n; ++i) {
    bit_of_[candidates_[i]] = static_cast<int>(i);
  }
  root_ = n == 0 ? 0 : static_cast<Mask>((1u << n) - 1);

  // Level-synchronous BFS. All masks of one level are distinct and absent
  // from lower levels (a level-ℓ node has exactly ℓ bits removed from the
  // root); the budget is checked per level and the next level is visited
  // in ascending mask order (see the file comment of ibg.h).
  std::vector<Mask> level = {root_};
  std::vector<Mask> next_level;
  IndexSet scratch;
  while (!level.empty()) {
    if (nodes_.size() + level.size() > max_nodes && n != 0) return false;
    *calls += level.size();
    next_level.clear();
    for (const Mask y : level) {
      ToSetInto(candidates_, y, &scratch);
      const PlanSummary plan = optimizer.Optimize(q, scratch);
      Mask used = ToMask(plan.used);
      WFIT_CHECK(IsSubset(used, y),
                 "optimizer used an index outside the config");
      nodes_.Insert(y, Node{plan.cost, used});
      relevant_used_ |= used;
      // One child per used index: remove it.
      Mask rest = used;
      while (rest != 0) {
        int bit = LowestBit(rest);
        rest &= rest - 1;
        next_level.push_back(y & ~(Mask{1} << bit));
      }
    }
    // Canonical mask order; duplicates (several parents sharing a child)
    // collapse here.
    std::sort(next_level.begin(), next_level.end());
    next_level.erase(std::unique(next_level.begin(), next_level.end()),
                     next_level.end());
    level.swap(next_level);
  }
  return true;
}

void IndexBenefitGraph::CheckSingleReader() const {
  const uint64_t id =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1;
  uint64_t expected = 0;
  if (reader_.compare_exchange_strong(expected, id,
                                      std::memory_order_relaxed)) {
    return;  // first memoizing reader claims the graph
  }
  WFIT_CHECK(expected == id,
             "IndexBenefitGraph: memoizing reads from two threads (cost "
             "lookups mutate the memo caches; give each thread its own IBG)");
}

const IndexBenefitGraph::Node& IndexBenefitGraph::Covering(
    Mask subset) const {
  Mask y = root_;
  while (true) {
    const Node* node = nodes_.Find(y);
    WFIT_CHECK(node != nullptr, "IBG descent reached a missing node");
    Mask extra = node->used & ~subset;
    if (extra == 0) return *node;
    y &= ~(Mask{1} << LowestBit(extra));
  }
}

Mask IndexBenefitGraph::Compress(Mask subset) const {
  Mask idx = 0;
  for (Mask rest = subset; rest != 0; rest &= rest - 1) {
    idx |= Mask{1} << enum_pos_[LowestBit(rest)];
  }
  return idx;
}

double IndexBenefitGraph::CostAt(Mask key) const {
  if (enum_ready_ && IsSubset(key, enum_universe_)) {
    return enum_costs_[Compress(key)];
  }
  if (const double* cached = cost_cache_.Find(key)) return *cached;
  double cost = Covering(key).cost;
  cost_cache_.Insert(key, cost);
  return cost;
}

double IndexBenefitGraph::CostOf(Mask subset) const {
  WFIT_DCHECK(IsSubset(subset, root_), "CostOf: mask outside candidate set");
  CheckSingleReader();
  // Only plan-relevant bits can change the answer; projecting first makes
  // the memo caches dense.
  return CostAt(subset & relevant_used_);
}

Mask IndexBenefitGraph::UsedAt(Mask subset) const {
  WFIT_CHECK(IsSubset(subset, root_), "UsedAt: mask outside candidate set");
  return Covering(subset).used;
}

double IndexBenefitGraph::BenefitOf(int bit, Mask context) const {
  CheckSingleReader();
  Mask without = context & ~(Mask{1} << bit);
  Mask with = without | (Mask{1} << bit);
  return CostAt(without & relevant_used_) - CostAt(with & relevant_used_);
}

void IndexBenefitGraph::PrepareEnumeration() const {
  if (enum_ready_) return;
  enum_universe_ = KeepLowestBits(relevant_used_, kMaxEnumerationBits);
  // masks[x]: the domain subset with dense index x (rank r <-> bit r of x).
  std::vector<Mask> masks = {0};
  int k = 0;
  for (Mask rest = enum_universe_; rest != 0; rest &= rest - 1) {
    const int bit = LowestBit(rest);
    enum_pos_[bit] = static_cast<uint8_t>(k++);
    const size_t half = masks.size();
    for (size_t x = 0; x < half; ++x) {
      masks.push_back(masks[x] | (Mask{1} << bit));
    }
  }
  const size_t size = masks.size();
  enum_costs_.resize(size);
  for (size_t x = 0; x < size; ++x) enum_costs_[x] = Covering(masks[x]).cost;
  const Mask above = relevant_used_ & ~enum_universe_;
  slabs_.resize(static_cast<size_t>(PopCount(above)) * size);
  uint8_t slab = 0;
  for (Mask rest = above; rest != 0; rest &= rest - 1) {
    const int bit = LowestBit(rest);
    slab_of_[bit] = slab;
    double* costs = &slabs_[slab * size];
    for (size_t x = 0; x < size; ++x) {
      costs[x] = Covering(masks[x] | (Mask{1} << bit)).cost;
    }
    ++slab;
  }
  enum_ready_ = true;
}

double IndexBenefitGraph::MaxBenefit(int bit) const {
  CheckSingleReader();
  const Mask self = Mask{1} << bit;
  if ((relevant_used_ & self) == 0) {
    // Never used in any plan: it cannot produce positive benefit, but an
    // update's maintenance can still be triggered; check the empty context.
    return BenefitOf(bit, 0);
  }
  PrepareEnumeration();
  // Contexts: X ⊆ the lowest kMaxEnumerationBits relevant bits other than
  // self, in descending mask order. Columns are read at X's dense index x:
  // cost(X ∪ {a}) is enum_costs_[x | rank(a)] for a in the domain, and
  // slab a's entry x above it.
  const size_t size = enum_costs_.size();
  const double* base = enum_costs_.data();
  double best = -std::numeric_limits<double>::infinity();
  auto scan = [&best](Mask contexts, const double* without,
                      const double* with) {
    for (SubmaskIterator it(contexts); !it.done(); it.Next()) {
      best = std::max(best, without[it.mask()] - with[it.mask()]);
    }
  };
  if (IsSubset(self, enum_universe_)) {
    const Mask p = Mask{1} << enum_pos_[bit];
    const Mask contexts = static_cast<Mask>(size - 1) & ~p;
    const Mask above = relevant_used_ & ~enum_universe_;
    if (above != 0) {
      // Without self, the lowest bit above the domain joins the context
      // universe; it is the highest bit, so its contexts come first.
      const double* slab = &slabs_[slab_of_[LowestBit(above)] * size];
      scan(contexts, slab, slab + p);
    }
    scan(contexts, base, base + p);
  } else {
    scan(static_cast<Mask>(size - 1), base,
         &slabs_[slab_of_[bit] * size]);
  }
  return best;
}

double IndexBenefitGraph::MaxInteraction(int bit_a, int bit_b) const {
  CheckSingleReader();
  PrepareEnumeration();
  const Mask mask_a = Mask{1} << bit_a;
  const Mask mask_b = Mask{1} << bit_b;
  // The context universe always lies inside the domain, so X, X∪a and X∪b
  // are columns (see MaxBenefit). X∪ab is one too unless both bits are
  // above the domain.
  const Mask universe = KeepLowestBits(relevant_used_ & ~(mask_a | mask_b),
                                       kMaxEnumerationBits - 2);
  const size_t size = enum_costs_.size();
  const double* base = enum_costs_.data();
  // rank: the bit's dense-index weight, 0 above the domain.
  auto rank = [&](int bit) -> size_t {
    return IsSubset(Mask{1} << bit, enum_universe_)
               ? size_t{1} << enum_pos_[bit]
               : 0;
  };
  auto slab = [&](int bit) { return &slabs_[slab_of_[bit] * size]; };
  const size_t rank_a = rank(bit_a);
  const size_t rank_b = rank(bit_b);
  const double* with_a = rank_a != 0 ? base + rank_a : slab(bit_a);
  const double* with_b = rank_b != 0 ? base + rank_b : slab(bit_b);
  const double* with_ab = rank_b != 0   ? with_a + rank_b
                          : rank_a != 0 ? with_b + rank_a
                                        : nullptr;
  double best = 0.0;
  SubmaskIterator real(universe);
  for (SubmaskIterator it(Compress(universe)); !it.done();
       it.Next(), real.Next()) {
    const Mask x = it.mask();
    const double cost_ab = with_ab != nullptr
                               ? with_ab[x]
                               : Covering(real.mask() | mask_a | mask_b).cost;
    // |cost(X) − cost(X∪a) − cost(X∪b) + cost(X∪ab)|
    double v = base[x] - with_a[x] - with_b[x] + cost_ab;
    best = std::max(best, std::abs(v));
  }
  return best;
}

int IndexBenefitGraph::BitOf(IndexId id) const {
  auto it = bit_of_.find(id);
  return it == bit_of_.end() ? -1 : it->second;
}

Mask IndexBenefitGraph::ToMask(const IndexSet& set) const {
  Mask m = 0;
  for (IndexId id : set) {
    int bit = BitOf(id);
    if (bit >= 0) m |= Mask{1} << bit;
  }
  return m;
}

IndexSet IndexBenefitGraph::ToSet(Mask mask) const {
  IndexSet out;
  ToSetInto(candidates_, mask, &out);
  return out;
}

}  // namespace wfit
