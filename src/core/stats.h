// Workload statistics maintained by chooseCands (Sec. 5.2.2):
//   idxStats[a]  — (n, βn) entries, βn = max benefit of index a for query n;
//   intStats[a,b] — (n, d) entries, d = doi_qn(a, b);
// both windowed to the histSize most recent positive entries. The derived
// "current benefit" benefit*_N and "current degree of interaction" doi*_N
// use the LRU-K-inspired maximum-over-suffix-averages formula.
#ifndef WFIT_CORE_STATS_H_
#define WFIT_CORE_STATS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "catalog/index.h"
#include "common/check.h"

namespace wfit {

/// The storage of one windowed series of (position, value) entries: a
/// ring that grows one entry at a time, at exact capacity, up to the
/// window size (passed in by the owner) and then overwrites the oldest
/// entry in place. 16 bytes plus the entries: a tenant holds ~10k windows
/// averaging ~14 entries, so a doubling growth policy's slack and
/// per-window bookkeeping would be a large share of its memory.
class RecencyRing {
 public:
  RecencyRing() = default;
  RecencyRing(RecencyRing&& other) noexcept { Swap(&other); }
  RecencyRing& operator=(RecencyRing&& other) noexcept {
    Swap(&other);
    return *this;
  }
  RecencyRing(const RecencyRing&) = delete;
  RecencyRing& operator=(const RecencyRing&) = delete;
  ~RecencyRing();

  /// Appends an entry for workload position n (non-decreasing), keeping
  /// the newest hist_size entries.
  void Record(uint32_t hist_size, uint64_t n, double value);
  /// The paper's current value of the series at workload position `now`:
  ///   value*_N = max_ℓ (v1 + ... + vℓ) / (N − nℓ + 1),
  /// evaluated newest to oldest. Recent entries get small denominators, so
  /// recently useful indices score high (cf. LRU-K). Zero when empty.
  double CurrentValue(uint64_t now) const;
  size_t size() const { return size_; }
  /// Oldest-first copy of the entries.
  std::vector<std::pair<uint64_t, double>> Entries() const;
  /// Calls f(position, value) for every entry, oldest first: the slots
  /// after newest_ (the older run once the ring has wrapped), then the
  /// slots up to and including it.
  template <typename F>
  void ForEachEntry(F&& f) const {
    if (size_ == 0) return;
    for (uint32_t i = newest_ + 1; i < size_; ++i) f(buf_[i].n, buf_[i].value);
    for (uint32_t i = 0; i <= newest_; ++i) f(buf_[i].n, buf_[i].value);
  }
  /// Replaces the entries with the newest hist_size of `oldest_first`
  /// (positions non-decreasing), as a sequence of Record calls would.
  void Restore(uint32_t hist_size,
               const std::vector<std::pair<uint64_t, double>>& oldest_first);

 private:
  struct Entry {
    uint64_t n;
    double value;
  };
  void Swap(RecencyRing* other);

  /// malloc'd, exactly size_ entries. newest_ indexes the most recent
  /// entry; the oldest is the next slot once the ring is full.
  Entry* buf_ = nullptr;
  uint32_t size_ = 0;
  uint32_t newest_ = 0;
};

/// The windows of one statistic, keyed by index id or pair key, all with
/// the same window size. One open-addressed slot array (linear probing,
/// load ≤ 0.7, no erase) holds every window's ring, so a window costs no
/// heap node beyond its entries. Exports sort, so slot order never shows.
template <typename Key>
class RecencyWindowMap {
 public:
  explicit RecencyWindowMap(size_t hist_size)
      : hist_size_(static_cast<uint32_t>(hist_size)) {
    WFIT_CHECK(hist_size <= UINT32_MAX, "window size too large");
  }

  void Record(Key key, uint64_t n, double value) {
    Slot(key).Record(hist_size_, n, value);
  }

  /// value*_N of the window for `key`; zero when there is none.
  double CurrentValue(Key key, uint64_t now) const {
    const RecencyRing* ring = Find(key);
    return ring == nullptr ? 0.0 : ring->CurrentValue(now);
  }

  bool Contains(Key key) const { return Find(key) != nullptr; }

  /// Replaces (or creates) the window for `key`.
  void Restore(Key key,
               const std::vector<std::pair<uint64_t, double>>& oldest_first) {
    Slot(key).Restore(hist_size_, oldest_first);
  }

  size_t size() const { return size_; }

  /// Calls f(key, ring) for every window, in key order.
  template <typename F>
  void ForEachSorted(F&& f) const {
    std::vector<std::pair<Key, size_t>> order;
    order.reserve(size_);
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (used_[i]) order.emplace_back(keys_[i], i);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [key, slot] : order) f(key, rings_[slot]);
  }

  /// Every window as (key, entries oldest first), sorted by key.
  std::vector<std::pair<Key, std::vector<std::pair<uint64_t, double>>>>
  Export() const {
    std::vector<std::pair<Key, std::vector<std::pair<uint64_t, double>>>> out;
    out.reserve(size_);
    ForEachSorted([&out](Key key, const RecencyRing& ring) {
      out.emplace_back(key, ring.Entries());
    });
    return out;
  }

 private:
  /// The slot holding `key`, or the empty slot where it would go.
  size_t Probe(Key key) const {
    uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    const size_t mask = keys_.size() - 1;
    size_t i = static_cast<size_t>(h ^ (h >> 32)) & mask;
    while (used_[i] && keys_[i] != key) i = (i + 1) & mask;
    return i;
  }

  const RecencyRing* Find(Key key) const {
    if (keys_.empty()) return nullptr;
    const size_t i = Probe(key);
    return used_[i] ? &rings_[i] : nullptr;
  }

  /// The ring for `key`, created empty if absent.
  RecencyRing& Slot(Key key) {
    if ((size_ + 1) * 10 > keys_.size() * 7) Grow();
    const size_t i = Probe(key);
    if (!used_[i]) {
      used_[i] = true;
      keys_[i] = key;
      ++size_;
    }
    return rings_[i];
  }

  void Grow() {
    std::vector<Key> keys = std::move(keys_);
    std::vector<RecencyRing> rings = std::move(rings_);
    std::vector<bool> used = std::move(used_);
    const size_t cap = keys.empty() ? 16 : keys.size() * 2;
    keys_.assign(cap, Key{});
    rings_ = std::vector<RecencyRing>(cap);
    used_.assign(cap, false);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!used[i]) continue;
      const size_t j = Probe(keys[i]);
      used_[j] = true;
      keys_[j] = keys[i];
      rings_[j] = std::move(rings[i]);
    }
  }

  uint32_t hist_size_;
  std::vector<Key> keys_;
  std::vector<RecencyRing> rings_;
  std::vector<bool> used_;
  size_t size_ = 0;
};

/// idxStats: per-index benefit windows.
class BenefitStats {
 public:
  explicit BenefitStats(size_t hist_size) : windows_(hist_size) {}

  /// Records βn for index a at position n; ignored unless βn > 0
  /// (the paper stores positive-benefit entries only).
  void Record(IndexId a, uint64_t n, double beta);

  /// benefit*_N(a).
  double CurrentBenefit(IndexId a, uint64_t now) const;

  /// Every window keyed by index id, sorted by id, entries oldest first
  /// (persist/ snapshots).
  std::vector<std::pair<IndexId, std::vector<std::pair<uint64_t, double>>>>
  Export() const;
  /// The windows Export() would copy, visited in place (snapshot encoding).
  const RecencyWindowMap<IndexId>& windows() const { return windows_; }
  /// Re-creates one exported window (replaces any existing one for `a`).
  void RestoreWindow(IndexId a,
                     const std::vector<std::pair<uint64_t, double>>& entries);

 private:
  RecencyWindowMap<IndexId> windows_;
};

/// intStats: per-pair doi windows. Pairs are unordered.
class InteractionStats {
 public:
  explicit InteractionStats(size_t hist_size) : windows_(hist_size) {}

  /// Records doi_qn(a, b) = d at position n; ignored unless d > 0.
  void Record(IndexId a, IndexId b, uint64_t n, double d);

  /// doi*_N(a, b).
  double CurrentDoi(IndexId a, IndexId b, uint64_t now) const;

  /// True if any entry was ever recorded for the pair.
  bool HasInteraction(IndexId a, IndexId b) const;

  /// Every window keyed by the packed pair key (lo << 32 | hi), sorted by
  /// key, entries oldest first (persist/ snapshots).
  std::vector<std::pair<uint64_t, std::vector<std::pair<uint64_t, double>>>>
  Export() const;
  /// The windows Export() would copy, visited in place (snapshot encoding).
  const RecencyWindowMap<uint64_t>& windows() const { return windows_; }
  /// Re-creates one exported window under its packed pair key.
  void RestoreWindow(uint64_t key,
                     const std::vector<std::pair<uint64_t, double>>& entries);

 private:
  static uint64_t Key(IndexId a, IndexId b);
  RecencyWindowMap<uint64_t> windows_;
};

}  // namespace wfit

#endif  // WFIT_CORE_STATS_H_
