#include "core/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>

namespace wfit {
namespace {

PartitionOptions opts_default() { return PartitionOptions{}; }

// The dense Fig. 7 search ChoosePartition replaced, kept verbatim as the
// oracle: it rescans every part pair per merge over a dense cross-loss
// cache. The sparse search must choose the same partitions and consume the
// same RNG draws.
std::vector<IndexSet> DenseChoosePartition(
    const std::vector<IndexId>& indices,
    const std::vector<IndexSet>& current_partition, const DoiFn& doi,
    const PartitionOptions& options, Rng* rng) {
  auto states_of = [](size_t k) { return size_t{1} << k; };
  IndexSet d = IndexSet::FromVector(indices);
  const std::vector<IndexId>& ids = d.ids();
  const size_t n = ids.size();
  std::vector<double> doi_matrix(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double v = doi(ids[i], ids[j]);
      doi_matrix[i * n + j] = v;
      doi_matrix[j * n + i] = v;
    }
  }
  using DensePart = std::vector<uint32_t>;
  auto cross_dense = [&](const DensePart& a, const DensePart& b) {
    double total = 0.0;
    for (uint32_t x : a) {
      const double* row = &doi_matrix[x * n];
      for (uint32_t y : b) total += row[y];
    }
    return total;
  };
  auto loss_dense = [&](const std::vector<DensePart>& parts) {
    double total = 0.0;
    for (size_t i = 0; i < parts.size(); ++i) {
      for (size_t j = i + 1; j < parts.size(); ++j) {
        total += cross_dense(parts[i], parts[j]);
      }
    }
    return total;
  };
  auto states_dense = [&](const std::vector<DensePart>& parts) {
    size_t total = 0;
    for (const DensePart& p : parts) total += states_of(p.size());
    return total;
  };

  std::vector<DensePart> best;
  double best_loss = std::numeric_limits<double>::infinity();
  bool have_best = false;
  {
    std::vector<DensePart> base;
    std::vector<bool> covered(n, false);
    for (const IndexSet& part : current_partition) {
      DensePart kept;
      for (size_t x = 0; x < n; ++x) {
        if (part.Contains(ids[x])) {
          kept.push_back(static_cast<uint32_t>(x));
          covered[x] = true;
        }
      }
      if (!kept.empty()) base.push_back(std::move(kept));
    }
    for (size_t x = 0; x < n; ++x) {
      if (!covered[x]) base.push_back(DensePart{static_cast<uint32_t>(x)});
    }
    bool feasible = states_dense(base) <= options.state_cnt;
    for (const DensePart& p : base) {
      feasible = feasible && p.size() <= options.max_part_size;
    }
    if (feasible) {
      best_loss = loss_dense(base);
      best = std::move(base);
      have_best = true;
    }
  }

  struct Candidate {
    size_t i, j;
    double loss;
    double weight;
  };
  std::vector<Candidate> e, e1;
  std::vector<double> weights;
  std::vector<double> cross_cache;
  for (int iter = 0; iter < options.rand_cnt; ++iter) {
    std::vector<DensePart> parts;
    for (size_t x = 0; x < n; ++x) {
      parts.push_back(DensePart{static_cast<uint32_t>(x)});
    }
    cross_cache = doi_matrix;
    size_t current_states = states_dense(parts);
    while (true) {
      e.clear();
      e1.clear();
      const size_t p = parts.size();
      for (size_t i = 0; i < p; ++i) {
        for (size_t j = i + 1; j < p; ++j) {
          double cross = cross_cache[i * p + j];
          if (cross <= 0.0) continue;
          size_t ni = parts[i].size(), nj = parts[j].size();
          if (ni + nj > options.max_part_size) continue;
          size_t merged_states = current_states - states_of(ni) -
                                 states_of(nj) + states_of(ni + nj);
          if (merged_states > options.state_cnt) continue;
          Candidate c{i, j, cross, 0.0};
          if (ni == 1 && nj == 1) {
            c.weight = cross;
            e1.push_back(c);
          } else {
            double denom = static_cast<double>(
                states_of(ni + nj) - states_of(ni) - states_of(nj));
            c.weight = cross / std::max(1.0, denom);
            e.push_back(c);
          }
        }
      }
      const std::vector<Candidate>& pool = !e1.empty() ? e1 : e;
      if (pool.empty()) break;
      weights.clear();
      for (const Candidate& c : pool) weights.push_back(c.weight);
      const Candidate& pick = pool[rng->PickWeighted(weights)];
      DensePart merged;
      std::merge(parts[pick.i].begin(), parts[pick.i].end(),
                 parts[pick.j].begin(), parts[pick.j].end(),
                 std::back_inserter(merged));
      current_states += states_of(merged.size()) -
                        states_of(parts[pick.i].size()) -
                        states_of(parts[pick.j].size());
      parts[pick.i] = std::move(merged);
      parts.erase(parts.begin() + static_cast<ptrdiff_t>(pick.j));
      const size_t q = parts.size();
      for (size_t i = 0, src_i = 0; i < q; ++i, ++src_i) {
        if (src_i == pick.j) ++src_i;
        for (size_t j = 0, src_j = 0; j < q; ++j, ++src_j) {
          if (src_j == pick.j) ++src_j;
          cross_cache[i * q + j] = cross_cache[src_i * p + src_j];
        }
      }
      cross_cache.resize(q * q);
      for (size_t k = 0; k < q; ++k) {
        if (k == pick.i) continue;
        double v = k < pick.i ? cross_dense(parts[k], parts[pick.i])
                              : cross_dense(parts[pick.i], parts[k]);
        cross_cache[pick.i * q + k] = v;
        cross_cache[k * q + pick.i] = v;
      }
    }
    double loss = loss_dense(parts);
    if (!have_best || loss < best_loss) {
      best_loss = loss;
      best = std::move(parts);
      have_best = true;
    }
  }
  std::vector<IndexSet> out;
  for (const DensePart& p : best) {
    IndexSet set;
    for (uint32_t x : p) set.Add(ids[x]);
    out.push_back(std::move(set));
  }
  CanonicalizePartition(&out);
  return out;
}

DoiFn TableDoi(std::map<std::pair<IndexId, IndexId>, double> table) {
  return [table = std::move(table)](IndexId a, IndexId b) {
    auto key = std::minmax(a, b);
    auto it = table.find({key.first, key.second});
    return it == table.end() ? 0.0 : it->second;
  };
}

TEST(PartitionLossTest, NoCrossInteractionsMeansZeroLoss) {
  DoiFn doi = TableDoi({{{1, 2}, 5.0}});
  std::vector<IndexSet> parts = {IndexSet{1, 2}, IndexSet{3}};
  EXPECT_DOUBLE_EQ(PartitionLoss(parts, doi), 0.0);
}

TEST(PartitionLossTest, CrossPairsSum) {
  DoiFn doi = TableDoi({{{1, 3}, 5.0}, {{2, 3}, 2.0}, {{1, 2}, 9.0}});
  std::vector<IndexSet> parts = {IndexSet{1, 2}, IndexSet{3}};
  // 1-3 and 2-3 cross; 1-2 does not.
  EXPECT_DOUBLE_EQ(PartitionLoss(parts, doi), 7.0);
}

TEST(PartitionStatesTest, SumsPowersOfTwo) {
  std::vector<IndexSet> parts = {IndexSet{1, 2, 3}, IndexSet{4}, IndexSet{5, 6}};
  EXPECT_EQ(PartitionStates(parts), 8u + 2u + 4u);
}

TEST(CanonicalizeTest, SortsByMinElementAndDropsEmpties) {
  std::vector<IndexSet> parts = {IndexSet{5}, IndexSet{}, IndexSet{1, 9}};
  CanonicalizePartition(&parts);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], (IndexSet{1, 9}));
  EXPECT_EQ(parts[1], (IndexSet{5}));
}

TEST(ChoosePartitionTest, MergesInteractingPair) {
  Rng rng(1);
  DoiFn doi = TableDoi({{{1, 2}, 10.0}});
  PartitionOptions opts;
  opts.state_cnt = 100;
  std::vector<IndexSet> result =
      ChoosePartition({1, 2, 3}, {}, doi, opts, &rng);
  // 1 and 2 interact strongly and the budget allows the merge: loss 0.
  EXPECT_DOUBLE_EQ(PartitionLoss(result, doi), 0.0);
  bool merged = false;
  for (const IndexSet& p : result) {
    if (p.Contains(1) && p.Contains(2)) merged = true;
  }
  EXPECT_TRUE(merged);
}

TEST(ChoosePartitionTest, RespectsStateBudget) {
  Rng rng(2);
  // Everything interacts with everything: an unconstrained solution would
  // be one big part of 6 (2^6 = 64 states).
  std::map<std::pair<IndexId, IndexId>, double> table;
  for (IndexId a = 1; a <= 6; ++a) {
    for (IndexId b = a + 1; b <= 6; ++b) table[{a, b}] = 1.0;
  }
  PartitionOptions opts;
  opts.state_cnt = 20;  // forces splitting
  std::vector<IndexSet> result =
      ChoosePartition({1, 2, 3, 4, 5, 6}, {}, TableDoi(table), opts, &rng);
  EXPECT_LE(PartitionStates(result), opts.state_cnt);
  IndexSet covered;
  for (const IndexSet& p : result) covered = covered.Union(p);
  EXPECT_EQ(covered.size(), 6u);
}

TEST(ChoosePartitionTest, PartitionCoversExactlyTheInput) {
  Rng rng(3);
  DoiFn doi = TableDoi({});
  PartitionOptions opts;
  std::vector<IndexSet> result =
      ChoosePartition({4, 8, 15, 16}, {}, doi, opts, &rng);
  IndexSet covered;
  size_t total = 0;
  for (const IndexSet& p : result) {
    covered = covered.Union(p);
    total += p.size();
  }
  EXPECT_EQ(covered, (IndexSet{4, 8, 15, 16}));
  EXPECT_EQ(total, 4u);  // disjoint
}

TEST(ChoosePartitionTest, NoInteractionsYieldsSingletons) {
  Rng rng(4);
  PartitionOptions opts;
  std::vector<IndexSet> result =
      ChoosePartition({1, 2, 3}, {}, TableDoi({}), opts, &rng);
  EXPECT_EQ(result.size(), 3u);
  for (const IndexSet& p : result) EXPECT_EQ(p.size(), 1u);
}

TEST(ChoosePartitionTest, BaselineKeepsCurrentPartitionWhenGood) {
  Rng rng(5);
  DoiFn doi = TableDoi({{{1, 2}, 3.0}});
  std::vector<IndexSet> current = {IndexSet{1, 2}, IndexSet{3}};
  PartitionOptions opts;
  std::vector<IndexSet> result =
      ChoosePartition({1, 2, 3}, current, doi, opts, &rng);
  EXPECT_DOUBLE_EQ(PartitionLoss(result, doi), 0.0);
}

TEST(ChoosePartitionTest, DropsVanishedIndicesFromBaseline) {
  Rng rng(6);
  DoiFn doi = TableDoi({});
  std::vector<IndexSet> current = {IndexSet{1, 2}, IndexSet{3}};
  // 2 is no longer a candidate.
  std::vector<IndexSet> result =
      ChoosePartition({1, 3}, current, doi, opts_default(), &rng);
  IndexSet covered;
  for (const IndexSet& p : result) covered = covered.Union(p);
  EXPECT_EQ(covered, (IndexSet{1, 3}));
}

TEST(ChoosePartitionTest, RespectsMaxPartSize) {
  Rng rng(7);
  std::map<std::pair<IndexId, IndexId>, double> table;
  for (IndexId a = 1; a <= 8; ++a) {
    for (IndexId b = a + 1; b <= 8; ++b) table[{a, b}] = 1.0;
  }
  PartitionOptions opts;
  opts.state_cnt = 100000;
  opts.max_part_size = 3;
  std::vector<IndexSet> result =
      ChoosePartition({1, 2, 3, 4, 5, 6, 7, 8}, {}, TableDoi(table), opts,
                      &rng);
  for (const IndexSet& p : result) EXPECT_LE(p.size(), 3u);
}

TEST(ChoosePartitionTest, DeterministicForSameSeed) {
  std::map<std::pair<IndexId, IndexId>, double> table;
  for (IndexId a = 1; a <= 6; ++a) {
    for (IndexId b = a + 1; b <= 6; ++b) {
      table[{a, b}] = static_cast<double>((a * 7 + b) % 5);
    }
  }
  PartitionOptions opts;
  opts.state_cnt = 24;
  Rng rng1(42), rng2(42);
  auto r1 = ChoosePartition({1, 2, 3, 4, 5, 6}, {}, TableDoi(table), opts,
                            &rng1);
  auto r2 = ChoosePartition({1, 2, 3, 4, 5, 6}, {}, TableDoi(table), opts,
                            &rng2);
  EXPECT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i], r2[i]);
}

TEST(ChoosePartitionTest, MatchesDenseSearchOnRandomInteractionGraphs) {
  // Seeded random doi matrices with tight budgets and non-trivial
  // baselines: the sparse search must pick the same partition as the dense
  // oracle and leave the RNG stream at the same position.
  Rng gen(2024);
  int merged_somewhere = 0;
  for (int trial = 0; trial < 310; ++trial) {
    // The last trials exceed 64 candidates: multi-word bitset rows.
    const size_t n = static_cast<size_t>(
        trial < 300 ? gen.UniformInt(2, 40) : gen.UniformInt(60, 90));
    const double density = gen.Uniform(0.05, 0.6);
    // Sparse, non-contiguous ids.
    std::vector<IndexId> ids;
    IndexId next = static_cast<IndexId>(gen.UniformInt(0, 5));
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(next);
      next += static_cast<IndexId>(gen.UniformInt(1, 4));
    }
    std::map<std::pair<IndexId, IndexId>, double> table;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (!gen.Bernoulli(density)) continue;
        // Trial pairs alternate between wide magnitudes and a few decimal
        // values whose sums depend on summation order (0.1 + 0.2 + 0.3 !=
        // 0.3 + 0.2 + 0.1) and tie often, so that a loss or weight summed
        // in another order would pick another partition.
        static constexpr double kDecimals[] = {0.1, 0.2, 0.3, 0.7};
        double v = trial % 4 < 2
                       ? kDecimals[gen.UniformInt(0, 3)]
                       : gen.Uniform(1e-3, 1.0) *
                             std::pow(10.0, static_cast<double>(
                                                gen.UniformInt(-3, 6)));
        table[{ids[i], ids[j]}] = v;
      }
    }
    PartitionOptions opts;
    opts.state_cnt = 2 * n + static_cast<size_t>(gen.UniformInt(0, 6 * n));
    opts.max_part_size = static_cast<size_t>(gen.UniformInt(2, 8));
    opts.rand_cnt = static_cast<int>(gen.UniformInt(1, 10));
    // Baseline: a random partition over the ids plus a few that are no
    // longer candidates (trial parity alternates feasible-ish and
    // oversized parts).
    std::vector<IndexSet> current;
    std::vector<IndexId> pool = ids;
    pool.push_back(next + 1);
    pool.push_back(next + 7);
    gen.Shuffle(&pool);
    const size_t max_base =
        trial % 2 == 0 ? 3 : static_cast<size_t>(gen.UniformInt(3, 10));
    for (size_t at = 0; at < pool.size();) {
      size_t take = static_cast<size_t>(gen.UniformInt(1, max_base));
      IndexSet part;
      for (size_t k = 0; k < take && at < pool.size(); ++k) {
        part.Add(pool[at++]);
      }
      if (gen.Bernoulli(0.85)) current.push_back(part);
    }

    const uint64_t seed = static_cast<uint64_t>(trial) * 7919 + 3;
    Rng sparse_rng(seed), dense_rng(seed);
    DoiFn doi = TableDoi(table);
    std::vector<IndexSet> got =
        ChoosePartition(ids, current, doi, opts, &sparse_rng);
    std::vector<IndexSet> want =
        DenseChoosePartition(ids, current, doi, opts, &dense_rng);
    ASSERT_EQ(got, want) << "trial " << trial << " n=" << n;
    ASSERT_EQ(sparse_rng.SaveState(), dense_rng.SaveState())
        << "trial " << trial;
    for (const IndexSet& p : got) merged_somewhere += p.size() > 1;
  }
  EXPECT_GT(merged_somewhere, 100);  // the trials exercise merges
}

TEST(ChoosePartitionDeathTest, NegativeDoiAborts) {
  Rng rng(1);
  DoiFn doi = TableDoi({{{1, 2}, -1.0}});
  EXPECT_DEATH(
      { (void)ChoosePartition({1, 2, 3}, {}, doi, PartitionOptions{}, &rng); },
      "non-negative");
}

}  // namespace
}  // namespace wfit
