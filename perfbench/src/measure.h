// Measurement primitives shared by every workload of the benchmark: raw
// latency samples with their percentile rule, the run report every
// workload fills in, and the span store that turns collected trace spans
// into per-layer count / total / self time / percentiles.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The command line run.py passes.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for checkpoint trees (inside the checkout).
  std::string work_dir;
};

/// Raw samples of one quantity. Percentiles are nearest-rank over the
/// sorted samples; the tail percentile is p99 when at least ten samples
/// lie beyond it, and otherwise the highest percentile that still has ten
/// samples beyond it.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t n() const { return values_.size(); }
  double Quantile(double q) const;
  double P50() const { return Quantile(0.5); }
  /// The tail quantile actually reported as "p99" (see class comment).
  double TailQ() const;
  double Tail() const { return Quantile(TailQ()); }
  double Mean() const;

 private:
  std::vector<double> values_;
  /// Sorted copy of values_, valid while the sizes match (samples are
  /// only ever appended).
  mutable std::vector<double> sorted_;
};

/// Median of a short list (used for repeated set-ups and paired ratios).
double Median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (statements, RPCs, spans, runs...).
  uint64_t n = 0;
  std::string note;
};

/// Everything one run reports. A failed output check clears `correct`
/// and records why; run.py then reports no result at all.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t n, const std::string& note = "");
  /// Adds "<name>_p50_<unit>" from `s`.
  void AddP50(const std::string& name, const Samples& s,
              const std::string& unit);
  /// Adds "<name>_p99_<unit>" from `s`, noting the tail percentile
  /// actually used.
  void AddP99(const std::string& name, const Samples& s,
              const std::string& unit);
  void Fail(const std::string& why);
  /// Prints the report as one JSON object on a single line.
  void WriteJson(std::ostream& os) const;
};

/// Peak resident set size of this process, in MB.
double PeakRssMb();
/// Total bytes of regular files under `dir` (recursive; 0 if missing).
uint64_t TreeBytes(const std::string& dir);
/// Removes `dir` recursively (ignores a missing directory).
void RemoveTree(const std::string& dir);

/// Deterministic 64-bit mixing for deriving per-tenant seeds.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Per-name aggregate of collected spans.
struct SpanStat {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  Samples dur_us;
};

/// Collects trace spans without double counting. Spans are pushed into a
/// thread's ring in completion order, so their end times are monotone per
/// thread: a re-collected window is de-duplicated by remembering, per
/// thread, the last end time absorbed (plus the ids that share it).
class SpanStore {
 public:
  /// Absorbs a CollectSpans() snapshot; returns how many spans were new,
  /// and the most any one thread contributed in `*busiest` (optional).
  size_t Absorb(const std::vector<wfit::obs::Span>& spans,
                size_t* busiest = nullptr);
  size_t size() const { return spans_.size(); }
  size_t instants() const { return instants_; }
  void AddLost(uint64_t n) { lost_ += n; }
  uint64_t lost() const { return lost_; }

  /// Per span name: count, total, self time (duration minus the union of
  /// its children's intervals clipped to its own), duration percentiles.
  std::map<std::string, SpanStat> ByName() const;
  /// Prints the per-layer table: every span name with count, total, self
  /// time and p50/p99, then each thread's time no span covers within
  /// `window_ms` (the unattributed remainder).
  void PrintTable(std::ostream& os, double window_ms) const;

 private:
  struct Cursor {
    uint64_t end_ns = 0;
    std::unordered_set<uint64_t> ids_at_end;
  };
  /// A span without its detail text; names are interned.
  struct Compact {
    uint64_t span_id = 0;
    uint64_t parent_span = 0;
    uint64_t start_ns = 0;
    uint64_t dur_ns = 0;
    uint32_t tid = 0;
    uint32_t name = 0;
  };
  uint32_t InternName(const char* name);

  std::vector<Compact> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
  size_t instants_ = 0;
  std::map<uint32_t, Cursor> cursors_;
  uint64_t lost_ = 0;
};

/// What the paper-core layers (core, ibg, optimizer) and the trace itself
/// report, whichever workload ran them.
struct CoreLayerInputs {
  const SpanStore* store = nullptr;
  /// The span that times one AnalyzeQuery call.
  const char* analyze_span = "analyze";
  /// Traced time the per-thread remainder is measured against.
  double window_ms = 0.0;
  std::vector<double> overhead_pct;
  uint64_t statements = 0;
  uint64_t repartitions = 0;
  uint64_t feedback_applied = 0;
  uint64_t whatif_calls = 0;
  uint64_t cache_hits = 0;  // both memo tiers
  uint64_t cache_probes = 0;
};

/// Prints the per-layer table and adds the core.*, ibg.*, optimizer.* and
/// obs.* per-layer metrics.
void AddCoreLayers(const CoreLayerInputs& in, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
