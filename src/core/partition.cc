#include "core/partition.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>

namespace wfit {

namespace {

double CrossLoss(const IndexSet& a, const IndexSet& b, const DoiFn& doi) {
  double total = 0.0;
  for (IndexId x : a) {
    for (IndexId y : b) total += doi(x, y);
  }
  return total;
}

/// States used by a part of size k: 2^k.
size_t StatesOf(size_t k) { return size_t{1} << k; }

}  // namespace

double PartitionLoss(const std::vector<IndexSet>& parts, const DoiFn& doi) {
  double total = 0.0;
  for (size_t i = 0; i < parts.size(); ++i) {
    for (size_t j = i + 1; j < parts.size(); ++j) {
      total += CrossLoss(parts[i], parts[j], doi);
    }
  }
  return total;
}

size_t PartitionStates(const std::vector<IndexSet>& parts) {
  size_t total = 0;
  for (const IndexSet& p : parts) total += StatesOf(p.size());
  return total;
}

void CanonicalizePartition(std::vector<IndexSet>* parts) {
  parts->erase(std::remove_if(parts->begin(), parts->end(),
                              [](const IndexSet& p) { return p.empty(); }),
               parts->end());
  std::sort(parts->begin(), parts->end(),
            [](const IndexSet& a, const IndexSet& b) {
              return *a.begin() < *b.begin();
            });
}

namespace {

/// Calls f(t) for every set bit t ≥ from of a `words`-word bitset row, in
/// ascending order.
template <typename F>
void ForEachBit(const uint64_t* row, size_t words, size_t from, F&& f) {
  for (size_t w = from / 64; w < words; ++w) {
    uint64_t bits = row[w];
    if (w == from / 64) bits &= ~uint64_t{0} << (from % 64);
    while (bits != 0) {
      f(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

/// The Fig. 7 search state over dense member indices 0..n-1, as bitset
/// rows of `words` 64-bit words. Parts live in stable slots whose order is
/// the part order of the direct formulation: a merge of slots i < j keeps
/// the union in slot i and retires slot j, exactly as erasing parts[j]
/// after writing parts[i] would. Each slot keeps the set of other slots it
/// has a positive cross loss with, and those cross losses.
///
/// Every cross loss is the double the direct all-pairs sum would produce:
/// cross(a, b) for slots a < b sums doi[x][y] for x ∈ a ascending, then
/// y ∈ b ascending. The terms skipped here are doi entries that are not
/// positive, i.e. exactly ±0.0 (doi is non-negative), and adding a zero to
/// a sum that starts at +0.0 never changes it.
class PartGraph {
 public:
  /// `doi`: the dense n×n matrix (non-negative, symmetric).
  PartGraph(const std::vector<double>& doi, size_t n)
      : n_(n),
        words_((n + 63) / 64),
        doi_(doi),
        adj_(n * words_, 0),
        members_(n * words_, 0),
        nbrs_(n * words_, 0),
        cross_(n * n, 0.0),
        size_(n, 0) {
    for (size_t x = 0; x < n; ++x) {
      for (size_t y = 0; y < n; ++y) {
        if (doi[x * n + y] > 0.0) Set(&adj_, x, y);
      }
    }
  }

  /// All-singleton start: slot x holds member x, and the slot crosses are
  /// the doi entries themselves.
  void ResetSingletons() {
    std::fill(members_.begin(), members_.end(), 0);
    for (size_t x = 0; x < n_; ++x) {
      Set(&members_, x, x);
      size_[x] = 1;
      std::copy_n(&adj_[x * words_], words_, &nbrs_[x * words_]);
      ForEachBit(&adj_[x * words_], words_, 0, [&](size_t y) {
        cross_[x * n_ + y] = doi_[x * n_ + y];
      });
    }
  }

  /// Loads `parts` (sorted member lists covering every member exactly
  /// once) into slots 0..parts.size()-1 in order.
  void Reset(const std::vector<std::vector<uint32_t>>& parts) {
    std::fill(members_.begin(), members_.end(), 0);
    std::fill(nbrs_.begin(), nbrs_.end(), 0);
    std::fill(size_.begin(), size_.end(), 0);
    for (size_t s = 0; s < parts.size(); ++s) {
      for (uint32_t x : parts[s]) Set(&members_, s, x);
      size_[s] = parts[s].size();
    }
    for (size_t s = 0; s < parts.size(); ++s) {
      for (size_t t = s + 1; t < parts.size(); ++t) {
        const double cross = Cross(s, t);
        if (cross > 0.0) Link(s, t, cross);
      }
    }
  }

  /// Member count of slot s (slots run over 0..n-1); 0 once retired or
  /// unused.
  size_t size(size_t s) const { return size_[s]; }

  /// Calls f(t, cross) for every neighbour slot t > s, ascending.
  template <typename F>
  void ForEachUpperNeighbour(size_t s, F&& f) const {
    ForEachBit(&nbrs_[s * words_], words_, s + 1,
               [&](size_t t) { f(t, cross_[s * n_ + t]); });
  }

  /// Sorted members of slot s.
  std::vector<uint32_t> Members(size_t s) const {
    std::vector<uint32_t> out;
    ForEachBit(&members_[s * words_], words_, 0,
               [&](size_t x) { out.push_back(static_cast<uint32_t>(x)); });
    return out;
  }

  /// Merges slot j into slot i (i < j) and recomputes the merged part's
  /// crosses with its neighbours.
  void Merge(size_t i, size_t j) {
    uint64_t* mi = &members_[i * words_];
    uint64_t* mj = &members_[j * words_];
    uint64_t* ni = &nbrs_[i * words_];
    uint64_t* nj = &nbrs_[j * words_];
    for (size_t w = 0; w < words_; ++w) {
      mi[w] |= mj[w];
      mj[w] = 0;
      ni[w] |= nj[w];
    }
    size_[i] += size_[j];
    size_[j] = 0;
    ForEachBit(nj, words_, 0, [&](size_t k) { Clear(&nbrs_, k, j); });
    std::fill_n(nj, words_, 0);
    Clear(&nbrs_, i, i);
    ForEachBit(ni, words_, 0, [&](size_t k) {
      const double cross = k < i ? Cross(k, i) : Cross(i, k);
      Link(std::min(i, k), std::max(i, k), cross);
    });
  }

  /// loss(P): Σ cross over neighbouring slot pairs s < t, in (s, t) order.
  double Loss() const {
    double total = 0.0;
    for (size_t s = 0; s < n_; ++s) {
      ForEachUpperNeighbour(s, [&](size_t, double cross) { total += cross; });
    }
    return total;
  }

 private:
  void Set(std::vector<uint64_t>* rows, size_t row, size_t bit) {
    (*rows)[row * words_ + bit / 64] |= uint64_t{1} << (bit % 64);
  }
  void Clear(std::vector<uint64_t>* rows, size_t row, size_t bit) {
    (*rows)[row * words_ + bit / 64] &= ~(uint64_t{1} << (bit % 64));
  }

  /// cross(a, b) for slots a < b: members of a ascending, then their
  /// positive-doi neighbours in b ascending.
  double Cross(size_t a, size_t b) const {
    double total = 0.0;
    const uint64_t* mb = &members_[b * words_];
    ForEachBit(&members_[a * words_], words_, 0, [&](size_t x) {
      const uint64_t* ax = &adj_[x * words_];
      for (size_t w = 0; w < words_; ++w) {
        uint64_t bits = ax[w] & mb[w];
        while (bits != 0) {
          total += doi_[x * n_ + w * 64 + std::countr_zero(bits)];
          bits &= bits - 1;
        }
      }
    });
    return total;
  }

  void Link(size_t a, size_t b, double cross) {
    Set(&nbrs_, a, b);
    Set(&nbrs_, b, a);
    cross_[a * n_ + b] = cross;
    cross_[b * n_ + a] = cross;
  }

  const size_t n_;
  const size_t words_;
  const std::vector<double>& doi_;
  std::vector<uint64_t> adj_;      // per member: members with doi > 0
  std::vector<uint64_t> members_;  // per slot
  std::vector<uint64_t> nbrs_;     // per slot: slots with cross > 0
  std::vector<double> cross_;      // slot × slot, valid where nbrs_ is set
  std::vector<size_t> size_;       // per slot: member count
};

}  // namespace

std::vector<IndexSet> ChoosePartition(
    const std::vector<IndexId>& indices,
    const std::vector<IndexSet>& current_partition, const DoiFn& doi,
    const PartitionOptions& options, Rng* rng) {
  WFIT_CHECK(rng != nullptr, "ChoosePartition requires an Rng");
  IndexSet d = IndexSet::FromVector(indices);
  WFIT_CHECK(2 * d.size() <= options.state_cnt || d.size() <= 1,
             "state_cnt cannot accommodate even singleton parts");

  // doi is evaluated exactly once per pair (the DoiFn walks a stats
  // window). The interaction graph is sparse — on the paper's trace about
  // one pair in five interacts — and every search step below touches only
  // its positive entries.
  const std::vector<IndexId>& ids = d.ids();
  const size_t n = ids.size();
  std::vector<double> doi_matrix(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double v = doi(ids[i], ids[j]);
      WFIT_CHECK(v >= 0.0, "ChoosePartition: doi must be non-negative");
      doi_matrix[i * n + j] = v;
      doi_matrix[j * n + i] = v;
    }
  }
  PartGraph graph(doi_matrix, n);

  using DensePart = std::vector<uint32_t>;
  std::vector<DensePart> best;
  double best_loss = std::numeric_limits<double>::infinity();
  bool have_best = false;

  // Baseline: current partition restricted to D, plus singletons for the
  // new indices (Fig. 7, lines 2-7).
  {
    std::vector<DensePart> base;
    std::vector<bool> covered(n, false);
    for (const IndexSet& part : current_partition) {
      DensePart kept;
      for (IndexId id : part) {
        auto it = std::lower_bound(ids.begin(), ids.end(), id);
        if (it == ids.end() || *it != id) continue;
        const auto x = static_cast<uint32_t>(it - ids.begin());
        kept.push_back(x);
        covered[x] = true;
      }
      if (!kept.empty()) base.push_back(std::move(kept));
    }
    for (size_t x = 0; x < n; ++x) {
      if (!covered[x]) base.push_back(DensePart{static_cast<uint32_t>(x)});
    }
    size_t states = 0;
    bool feasible = true;
    for (const DensePart& p : base) {
      states += StatesOf(p.size());
      feasible = feasible && p.size() <= options.max_part_size;
    }
    if (feasible && states <= options.state_cnt) {
      graph.Reset(base);
      best_loss = graph.Loss();
      best = std::move(base);
      have_best = true;
    }
  }

  // Randomized merge searches (Fig. 7, lines 8-20). Each step draws one
  // pair from E1, the mergeable singleton pairs with positive cross loss,
  // or from E, all other such pairs, while E1 is empty. Both are kept in
  // (i, j) slot order, so Rng::PickWeighted sees the same weights in the
  // same order as a scan over all part pairs would build.
  using SlotPair = std::pair<uint32_t, uint32_t>;
  std::vector<SlotPair> pairs;
  std::vector<double> weights;
  for (int iter = 0; iter < options.rand_cnt; ++iter) {
    graph.ResetSingletons();
    size_t current_states = n * StatesOf(1);

    // E1 phase. Merging two singletons adds no states (2^2 = 2 + 2), so
    // every singleton pair stays mergeable while both ends stay singletons;
    // a merge only drops the pairs that touch it. Pairs never become
    // singleton pairs later, so E1 is built once per round.
    pairs.clear();
    weights.clear();
    if (options.max_part_size >= 2) {
      for (size_t i = 0; i < n; ++i) {
        graph.ForEachUpperNeighbour(i, [&](size_t j, double cross) {
          pairs.emplace_back(i, j);
          weights.push_back(cross);
        });
      }
    }
    while (!pairs.empty()) {
      const auto [i, j] = pairs[rng->PickWeighted(weights)];
      graph.Merge(i, j);
      size_t kept = 0;
      for (size_t k = 0; k < pairs.size(); ++k) {
        const auto [a, b] = pairs[k];
        if (a == i || a == j || b == i || b == j) continue;
        pairs[kept] = pairs[k];
        weights[kept] = weights[k];
        ++kept;
      }
      pairs.resize(kept);
      weights.resize(kept);
    }

    // E phase: weights are cross / (states the merge adds), and the state
    // budget shrinks with every merge, so E is rebuilt from the slot
    // graph's edges each step.
    while (true) {
      pairs.clear();
      weights.clear();
      for (size_t i = 0; i < n; ++i) {
        const size_t ni = graph.size(i);
        if (ni == 0) continue;
        graph.ForEachUpperNeighbour(i, [&](size_t j, double cross) {
          const size_t nj = graph.size(j);
          if (ni + nj > options.max_part_size) return;
          const size_t added = StatesOf(ni + nj) - StatesOf(ni) - StatesOf(nj);
          if (current_states + added > options.state_cnt) return;
          pairs.emplace_back(i, j);
          weights.push_back(cross / std::max(1.0, static_cast<double>(added)));
        });
      }
      if (pairs.empty()) break;
      const auto [i, j] = pairs[rng->PickWeighted(weights)];
      current_states += StatesOf(graph.size(i) + graph.size(j)) -
                        StatesOf(graph.size(i)) - StatesOf(graph.size(j));
      graph.Merge(i, j);
    }

    double loss = graph.Loss();
    if (!have_best || loss < best_loss) {
      best_loss = loss;
      best.clear();
      for (size_t s = 0; s < n; ++s) {
        if (graph.size(s) != 0) best.push_back(graph.Members(s));
      }
      have_best = true;
    }
  }

  WFIT_CHECK(have_best, "no feasible partition found");
  std::vector<IndexSet> out;
  out.reserve(best.size());
  for (const DensePart& p : best) {
    IndexSet set;
    for (uint32_t x : p) set.Add(ids[x]);
    out.push_back(std::move(set));
  }
  CanonicalizePartition(&out);
  return out;
}

}  // namespace wfit
