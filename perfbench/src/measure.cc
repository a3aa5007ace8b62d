#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace fs = std::filesystem;

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (sorted_.size() != values_.size()) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  // Nearest rank: the smallest sample with at least q of all samples at
  // or below it.
  const double n = static_cast<double>(sorted_.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, sorted_.size());
  return sorted_[rank - 1];
}

double Samples::TailQ() const {
  const double n = static_cast<double>(values_.size());
  if (n <= 10.0) return 0.5;
  // At least ten samples strictly above the reported rank.
  const double q = std::floor((n - 10.0) / n * 1000.0) / 1000.0;
  return std::max(0.5, std::min(0.99, q));
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t m = values.size() / 2;
  return values.size() % 2 == 1 ? values[m]
                                : 0.5 * (values[m - 1] + values[m]);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t n,
                 const std::string& note) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics.push_back({name, value, unit, n, note});
}

namespace {

/// "p99", or the lower tail percentile `s` supports (see Samples).
std::string TailNote(const Samples& s) {
  std::ostringstream tail;
  tail << "p" << s.TailQ() * 100.0;
  return tail.str();
}

}  // namespace

void Report::AddP50(const std::string& name, const Samples& s,
                    const std::string& unit) {
  Add(name + "_p50_" + unit, s.P50(), unit, s.n(), "p50");
}

void Report::AddP99(const std::string& name, const Samples& s,
                    const std::string& unit) {
  Add(name + "_p99_" + unit, s.Tail(), unit, s.n(), TailNote(s));
}

void Report::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::WriteJson(std::ostream& os) const {
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    os << (i ? ", " : "") << JsonString(errors[i]);
  }
  os << "], \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ", " : "") << JsonString(m.name)
       << ": {\"value\": " << JsonNumber(m.value)
       << ", \"unit\": " << JsonString(m.unit) << ", \"n\": " << m.n
       << ", \"note\": " << JsonString(m.note) << "}";
  }
  os << "}}\n";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

uint64_t TreeBytes(const std::string& dir) {
  // The tree may change under the walk (a checkpoint renames or prunes a
  // file); a walk that hit such an error is repeated.
  uint64_t total = 0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    std::error_code ec;
    if (!fs::exists(dir, ec)) return 0;
    total = 0;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      std::error_code size_ec;
      if (it->is_regular_file(size_ec)) {
        const uintmax_t size = it->file_size(size_ec);
        if (!size_ec) total += size;
      }
    }
    if (!ec) break;
  }
  return total;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

size_t SpanStore::Absorb(const std::vector<wfit::obs::Span>& spans,
                         size_t* busiest) {
  size_t added = 0;
  std::unordered_map<uint32_t, size_t> per_thread;
  // Per thread, accept only spans that end after the cursor (or at it,
  // with an id not absorbed yet); then advance the cursor.
  std::unordered_map<uint32_t, Cursor> next;
  for (const wfit::obs::Span& s : spans) {
    const uint64_t end = s.start_ns + s.dur_ns;
    Cursor& cur = cursors_[s.tid];
    if (end < cur.end_ns) continue;
    if (end == cur.end_ns && cur.ids_at_end.count(s.span_id) != 0) continue;
    ++added;
    ++per_thread[s.tid];
    if (s.dur_ns == 0) {
      ++instants_;  // events (overload decisions) carry no duration
    } else {
      spans_.push_back({s.span_id, s.parent_span, s.start_ns, s.dur_ns, s.tid,
                        InternName(s.name)});
    }
    Cursor& nx = next[s.tid];
    if (end > nx.end_ns) {
      nx.end_ns = end;
      nx.ids_at_end.clear();
    }
    if (end == nx.end_ns) nx.ids_at_end.insert(s.span_id);
  }
  for (auto& [tid, nx] : next) {
    Cursor& cur = cursors_[tid];
    if (nx.end_ns > cur.end_ns) {
      cur = std::move(nx);
    } else {
      cur.ids_at_end.insert(nx.ids_at_end.begin(), nx.ids_at_end.end());
    }
  }
  if (busiest != nullptr) {
    *busiest = 0;
    for (const auto& [tid, n] : per_thread) *busiest = std::max(*busiest, n);
  }
  return added;
}

uint32_t SpanStore::InternName(const char* name) {
  auto [it, inserted] =
      name_ids_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

namespace {

using Interval = std::pair<uint64_t, uint64_t>;

/// Total length of the union of `iv` (sorted in place).
uint64_t UnionLength(std::vector<Interval>* iv) {
  std::sort(iv->begin(), iv->end());
  uint64_t total = 0;
  uint64_t cur_lo = 0;
  uint64_t cur_hi = 0;
  bool open = false;
  for (const Interval& i : *iv) {
    if (i.second <= i.first) continue;
    if (!open || i.first > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = i.first;
      cur_hi = i.second;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, i.second);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

std::map<std::string, SpanStat> SpanStore::ByName() const {
  // Children grouped by parent id: sort (parent, start, end) once, then
  // look each span's children up by binary search.
  struct Child {
    uint64_t parent;
    uint64_t lo;
    uint64_t hi;
  };
  std::vector<Child> children;
  for (const Compact& s : spans_) {
    if (s.parent_span != 0) {
      children.push_back({s.parent_span, s.start_ns, s.start_ns + s.dur_ns});
    }
  }
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) { return a.parent < b.parent; });
  std::vector<SpanStat> stats(names_.size());
  std::vector<Interval> clipped;
  for (const Compact& s : spans_) {
    const uint64_t lo = s.start_ns;
    const uint64_t hi = s.start_ns + s.dur_ns;
    auto first = std::lower_bound(
        children.begin(), children.end(), s.span_id,
        [](const Child& c, uint64_t id) { return c.parent < id; });
    clipped.clear();
    for (auto it = first; it != children.end() && it->parent == s.span_id;
         ++it) {
      clipped.push_back({std::max(lo, it->lo), std::min(hi, it->hi)});
    }
    const uint64_t covered = clipped.empty() ? 0 : UnionLength(&clipped);
    SpanStat& st = stats[s.name];
    ++st.count;
    st.total_ms += static_cast<double>(s.dur_ns) / 1e6;
    st.self_ms += static_cast<double>(s.dur_ns - covered) / 1e6;
    st.dur_us.Add(static_cast<double>(s.dur_ns) / 1e3);
  }
  std::map<std::string, SpanStat> out;
  for (size_t i = 0; i < names_.size(); ++i) out[names_[i]] = stats[i];
  return out;
}

namespace {

/// The layer a span name belongs to, for the per-layer table.
const char* LayerOf(const std::string& name) {
  auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  if (starts("bench.")) return "bench";
  if (name == "analyze" || name == "choose_cands" || name == "repartition" ||
      name == "wfa.update") {
    return "core";
  }
  if (starts("ibg.")) return "ibg";
  if (starts("probe.")) return "optimizer";
  if (starts("wal.") || name == "checkpoint") return "persist";
  if (name == "publish" || starts("overload.")) return "service";
  if (starts("cli.") || starts("srv.")) return "net";
  return "other";
}

}  // namespace

void SpanStore::PrintTable(std::ostream& os, double window_ms) const {
  const std::map<std::string, SpanStat> by_name = ByName();
  std::vector<std::pair<std::string, const SpanStat*>> rows;
  for (const auto& [name, st] : by_name) rows.push_back({name, &st});
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    const std::string la = LayerOf(a.first);
    const std::string lb = LayerOf(b.first);
    return la != lb ? la < lb : a.second->self_ms > b.second->self_ms;
  });
  os << "per-layer table (traced window " << std::fixed
     << std::setprecision(1) << window_ms << " ms, " << spans_.size()
     << " spans, " << instants_ << " events, " << lost_ << " lost)\n";
  os << std::left << std::setw(10) << "layer" << std::setw(24) << "span"
     << std::right << std::setw(9) << "count" << std::setw(12) << "total_ms"
     << std::setw(12) << "self_ms" << std::setw(8) << "self%"
     << std::setw(11) << "p50_us" << std::setw(11) << "p99_us"
     << std::setw(7) << "(pct)" << "\n";
  for (const auto& [name, st] : rows) {
    os << std::left << std::setw(10) << LayerOf(name) << std::setw(24) << name
       << std::right << std::setw(9) << st->count << std::setw(12)
       << std::setprecision(2) << st->total_ms << std::setw(12)
       << st->self_ms << std::setw(8) << std::setprecision(1)
       << (window_ms > 0 ? 100.0 * st->self_ms / window_ms : 0.0)
       << std::setw(11) << std::setprecision(1) << st->dur_us.P50()
       << std::setw(11) << st->dur_us.Tail() << std::setw(7)
       << std::setprecision(1) << st->dur_us.TailQ() * 100.0 << "\n";
  }
  // Per thread: the time inside any span versus the traced window. Spans
  // on one thread nest, so the union of their intervals is the covered
  // time; what remains is idle time or work no span covers.
  std::map<uint32_t, std::vector<Interval>> by_tid;
  std::map<uint32_t, std::map<std::string, double>> top_names;
  for (const Compact& s : spans_) {
    by_tid[s.tid].push_back({s.start_ns, s.start_ns + s.dur_ns});
    top_names[s.tid][names_[s.name]] += static_cast<double>(s.dur_ns);
  }
  os << "unattributed remainder per thread (window - time inside spans)\n";
  for (auto& [tid, iv] : by_tid) {
    const double covered_ms = static_cast<double>(UnionLength(&iv)) / 1e6;
    std::string role;
    double role_ns = -1.0;
    for (const auto& [name, ns] : top_names[tid]) {
      if (ns > role_ns) {
        role_ns = ns;
        role = name;
      }
    }
    const double remainder = std::max(0.0, window_ms - covered_ms);
    os << "  thread " << std::setw(3) << tid << " (mostly " << std::left
       << std::setw(22) << role << std::right << ") covered "
       << std::setw(10) << std::setprecision(1) << covered_ms
       << " ms, unattributed " << std::setw(10) << remainder << " ms ("
       << (window_ms > 0 ? 100.0 * remainder / window_ms : 0.0) << "%)\n";
  }
  os.unsetf(std::ios::floatfield);
}

void AddCoreLayers(const CoreLayerInputs& in, Report* report) {
  const std::map<std::string, SpanStat> spans = in.store->ByName();
  auto stat = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanStat{} : it->second;
  };
  in.store->PrintTable(std::cout, in.window_ms);
  const SpanStat analyze = stat(in.analyze_span);
  const SpanStat choose = stat("choose_cands");
  const SpanStat ibg = stat("ibg.build");
  report->Add("core.analyze.calls", analyze.count, "count", analyze.count);
  report->Add("core.analyze.ms", analyze.total_ms, "ms", analyze.count);
  report->Add("core.choose_cands.self_ms", choose.self_ms, "ms", choose.count);
  report->Add("core.choose_cands.share",
              analyze.total_ms > 0 ? choose.self_ms / analyze.total_ms : 0.0,
              "ratio", choose.count, "base: core.analyze.ms");
  report->Add("core.repartition.ms", stat("repartition").total_ms, "ms",
              stat("repartition").count);
  report->Add("core.repartitions", in.repartitions, "count", in.statements);
  report->Add("core.wfa_update.self_ms", stat("wfa.update").self_ms, "ms",
              stat("wfa.update").count);
  report->Add("core.feedback.applied", in.feedback_applied, "count",
              in.statements);
  report->Add("ibg.build.calls", ibg.count, "count", ibg.count);
  report->Add("ibg.build.self_ms", ibg.self_ms, "ms", ibg.count);
  report->Add("ibg.build.p99_us", ibg.dur_us.Tail(), "us", ibg.count,
              TailNote(ibg.dur_us));
  report->Add("optimizer.whatif.calls", in.whatif_calls, "count",
              in.statements);
  report->Add("optimizer.probe.ms", stat("probe.real").total_ms, "ms",
              stat("probe.real").count);
  report->Add("optimizer.cache.hit_rate",
              in.cache_probes > 0 ? static_cast<double>(in.cache_hits) /
                                        static_cast<double>(in.cache_probes)
                                  : 0.0,
              "ratio", in.cache_probes, "base: optimizer.cache.probes");
  report->Add("optimizer.cache.probes", in.cache_probes, "count",
              in.cache_probes);
  const uint64_t collected = in.store->size() + in.store->instants();
  report->Add("obs.trace.spans", collected, "count", collected);
  report->Add("obs.trace.dropped", in.store->lost(), "count", collected);
  report->Add("obs.trace_overhead_pct", Median(in.overhead_pct), "%",
              in.overhead_pct.size(), "median over traced/untraced pairs");
}

}  // namespace perfbench
