#include "core/stats.h"

#include <algorithm>
#include <cstdlib>

namespace wfit {

RecencyRing::~RecencyRing() { std::free(buf_); }

void RecencyRing::Swap(RecencyRing* other) {
  std::swap(buf_, other->buf_);
  std::swap(size_, other->size_);
  std::swap(newest_, other->newest_);
}

void RecencyRing::Record(uint32_t hist_size, uint64_t n, double value) {
  WFIT_CHECK(size_ == 0 || buf_[newest_].n <= n,
             "RecencyRing positions must be non-decreasing");
  if (hist_size == 0) return;  // history disabled: window stays empty
  if (size_ < hist_size) {
    // Exact capacity: grow by one entry (in place when the heap allows).
    void* grown = std::realloc(buf_, (size_ + 1) * sizeof(Entry));
    WFIT_CHECK(grown != nullptr, "RecencyRing: out of memory");
    buf_ = static_cast<Entry*>(grown);
    newest_ = size_++;
  } else {
    newest_ = (newest_ + 1) % hist_size;  // overwrites the oldest slot
  }
  buf_[newest_] = Entry{n, value};
}

double RecencyRing::CurrentValue(uint64_t now) const {
  if (size_ == 0) return 0.0;
  double best = 0.0;
  double sum = 0.0;
  auto step = [&](const Entry& e) {
    sum += e.value;
    // now >= n always holds; the window spans the most recent now-n+1
    // statements.
    double denom = static_cast<double>(now - e.n + 1);
    best = std::max(best, sum / denom);
  };
  // Newest -> oldest: slots newest_ down to 0, then (once the ring has
  // wrapped) the older run from the last slot down to newest_ + 1.
  for (uint32_t i = newest_ + 1; i-- > 0;) step(buf_[i]);
  for (uint32_t i = size_; i-- > newest_ + 1;) step(buf_[i]);
  return best;
}

std::vector<std::pair<uint64_t, double>> RecencyRing::Entries() const {
  std::vector<std::pair<uint64_t, double>> out;
  out.reserve(size_);
  ForEachEntry([&out](uint64_t n, double value) { out.emplace_back(n, value); });
  return out;
}

void RecencyRing::Restore(
    uint32_t hist_size,
    const std::vector<std::pair<uint64_t, double>>& oldest_first) {
  for (size_t i = 1; i < oldest_first.size(); ++i) {
    WFIT_CHECK(oldest_first[i - 1].first <= oldest_first[i].first,
               "RecencyRing positions must be non-decreasing");
  }
  // The newest hist_size entries, oldest first: the logical ring a
  // sequence of Record calls would leave.
  const size_t keep = std::min<size_t>(oldest_first.size(), hist_size);
  std::free(buf_);
  buf_ = nullptr;
  size_ = 0;
  newest_ = 0;
  if (keep == 0) return;
  buf_ = static_cast<Entry*>(std::malloc(keep * sizeof(Entry)));
  WFIT_CHECK(buf_ != nullptr, "RecencyRing: out of memory");
  const size_t skip = oldest_first.size() - keep;
  for (size_t i = 0; i < keep; ++i) {
    buf_[i] = Entry{oldest_first[skip + i].first, oldest_first[skip + i].second};
  }
  size_ = static_cast<uint32_t>(keep);
  newest_ = size_ - 1;
}

void BenefitStats::Record(IndexId a, uint64_t n, double beta) {
  if (beta <= 0.0) return;
  windows_.Record(a, n, beta);
}

double BenefitStats::CurrentBenefit(IndexId a, uint64_t now) const {
  return windows_.CurrentValue(a, now);
}

std::vector<std::pair<IndexId, std::vector<std::pair<uint64_t, double>>>>
BenefitStats::Export() const {
  return windows_.Export();
}

void BenefitStats::RestoreWindow(
    IndexId a, const std::vector<std::pair<uint64_t, double>>& entries) {
  windows_.Restore(a, entries);
}

uint64_t InteractionStats::Key(IndexId a, IndexId b) {
  IndexId lo = std::min(a, b);
  IndexId hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

void InteractionStats::Record(IndexId a, IndexId b, uint64_t n, double d) {
  if (d <= 0.0) return;
  WFIT_CHECK(a != b, "interaction of an index with itself");
  windows_.Record(Key(a, b), n, d);
}

double InteractionStats::CurrentDoi(IndexId a, IndexId b, uint64_t now) const {
  return windows_.CurrentValue(Key(a, b), now);
}

bool InteractionStats::HasInteraction(IndexId a, IndexId b) const {
  return windows_.Contains(Key(a, b));
}

std::vector<std::pair<uint64_t, std::vector<std::pair<uint64_t, double>>>>
InteractionStats::Export() const {
  return windows_.Export();
}

void InteractionStats::RestoreWindow(
    uint64_t key, const std::vector<std::pair<uint64_t, double>>& entries) {
  windows_.Restore(key, entries);
}

}  // namespace wfit
