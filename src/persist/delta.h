// Delta snapshots: incremental checkpoints that diff the canonical
// snapshot payload against the previous checkpoint and persist only the
// changed slices, chained to their base by CRC.
//
// The canonical payload (persist/snapshot.h) is deterministic — the same
// tuner state always encodes to the same bytes — so a delta can be defined
// purely at the byte level: the payload is split into *units* (per-part
// work functions, selector windows, counters, the pool section, ...) by a
// chunker both the writer and the loader share, and a delta records, for
// each unit of the new payload, one of: "copy the base's unit", the new
// bytes, or a *patch* — a concatenation of base-unit ranges and shipped
// bytes. Patches are what make deltas small under WFIT's churn: a
// selector window is a ring (appends evict the oldest entry, shifting
// every byte), so a whole-unit diff would reship ~800 bytes per window
// per statement; the ring-shift patch ships just the appended entries.
// Applying a delta therefore reconstructs the exact payload a full
// snapshot would have contained, verified end-to-end by CRC: each delta
// names its base's payload CRC (the chain link) and its own reconstructed
// payload CRC (so a unit-granularity CRC collision can never smuggle a
// wrong byte through — the reconstruction is rejected and recovery falls
// back to an earlier chain state).
//
// Chain rules (pinned by delta_test.cc):
//   - a delta is only usable on top of its exact base (analyzed + CRC
//     both match); a corrupt or missing *full* snapshot invalidates every
//     delta chained to it — the loader falls back to the previous full
//     snapshot, never to an orphaned delta;
//   - a corrupt delta truncates the chain there: the prefix reconstructed
//     so far is still a valid durable state (the journal covers the rest);
//   - a full snapshot is forced every `full_every` deltas, on structural
//     change (part-structure or candidate-set churn), and whenever the
//     delta would not be materially smaller than the full payload.
#ifndef WFIT_PERSIST_DELTA_H_
#define WFIT_PERSIST_DELTA_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "persist/snapshot.h"

namespace wfit::persist {

inline constexpr uint32_t kDeltaMagic = 0x4C444657u;  // "WFDL" (LE)
inline constexpr uint32_t kDeltaVersion = 1;

/// Sections of the canonical snapshot payload, in payload order. The
/// (section, key) pair identifies a unit across payload versions of the
/// same tuner: parts are keyed by ordinal, selector windows by their
/// index / interaction key.
enum SnapshotSection : uint8_t {
  kSectionMeta = 1,         // analyzed + journal_lsn (16 bytes)
  kSectionPool = 2,         // index pool interning order (append-only)
  kSectionTunerHeader = 3,  // tuner kind tag + part count
  kSectionPart = 4,         // key = part ordinal: members, work, rec
  kSectionCandidates = 5,   // WFIT: candidate set + initial materialized
  kSectionCounters = 6,     // repartition / feedback counters
  kSectionSelectorCore = 7,  // universe + position + RNG stream state
  kSectionBenefitCount = 8,
  kSectionBenefitWindow = 9,  // key = IndexId
  kSectionInteractionCount = 10,
  kSectionInteractionWindow = 11,  // key = packed interaction pair
  kSectionOverload = 12,           // optional overload trailer
};

/// One contiguous slice of the canonical payload.
struct SnapshotUnit {
  uint8_t section = 0;
  uint64_t key = 0;
  uint64_t offset = 0;
  uint64_t len = 0;
};

/// Splits a canonical snapshot payload into its units. The units are
/// contiguous, in payload order, and cover every byte — concatenating them
/// reproduces the payload exactly. InvalidArgument on a malformed payload.
StatusOr<std::vector<SnapshotUnit>> ChunkSnapshotPayload(
    std::string_view payload);

/// Delta files in `dir`, sorted ascending by (root analyzed, analyzed).
std::vector<std::string> ListDeltas(const std::string& dir);

/// Parses delta-<root>-<analyzed>.wfdelta; false for other names.
bool ParseDeltaName(const std::string& filename, uint64_t* root_analyzed,
                    uint64_t* analyzed);

/// Removes full snapshots beyond the newest `keep` and every delta whose
/// root full snapshot is no longer retained (orphaned deltas are
/// unusable by construction — see the chain rules above).
void PruneCheckpointDir(const std::string& dir, size_t keep);

/// Decides full-vs-delta per checkpoint and owns the writer-side chain
/// state (the previous checkpoint's unit signatures). Single-threaded:
/// the analysis worker owns it, like the journal writer.
class DeltaCheckpointer {
 public:
  struct Options {
    /// Master switch; off makes every Write a full snapshot (the PR 3
    /// behavior, bit-for-bit).
    bool enable_deltas = true;
    /// A full snapshot is forced after this many consecutive deltas.
    uint64_t full_every = 8;
    /// A delta larger than this fraction of the full payload is not worth
    /// chaining; write a full snapshot instead.
    double max_delta_fraction = 0.5;
    /// Full-snapshot chains retained on disk (PruneCheckpointDir).
    size_t keep_chains = 2;
  };

  struct Result {
    uint64_t bytes = 0;
    bool wrote_full = false;
    /// Journal-LSN horizon covered by the retained checkpoints after this
    /// write: every journal record below it is reflected in both of the
    /// two newest durable full snapshots, so the journal prefix may be
    /// compacted away (CompactJournal). 0 = nothing safely compactable.
    uint64_t cover_lsn = 0;
  };

  DeltaCheckpointer() = default;
  explicit DeltaCheckpointer(Options options) : options_(options) {}

  /// Writes the next checkpoint of `tuner` into `dir` — a delta against
  /// the previous checkpoint when allowed, a full snapshot otherwise.
  StatusOr<Result> Write(const std::string& dir, const Tuner& tuner,
                         const IndexPool& pool, const SnapshotMeta& meta);

  /// Continues an on-disk chain restored by LoadLatestSnapshot: the next
  /// Write diffs against `payload` (the reconstructed chain-tail payload)
  /// instead of forcing a fresh full snapshot. `root_journal_lsn` is the
  /// chain's full-snapshot journal LSN (the compaction horizon it pins).
  Status Seed(std::string payload, uint64_t root_analyzed,
              uint64_t root_journal_lsn, uint64_t deltas_in_chain);

  /// Forgets the chain; the next Write is a full snapshot.
  void Reset();

  bool seeded() const { return seeded_; }
  uint64_t deltas_in_chain() const { return deltas_in_chain_; }

 private:
  /// One unit of the base payload: its identity, length and CRC, and the
  /// base bytes kept for patching it (a slice of base_bytes_).
  struct UnitSig {
    uint64_t key = 0;
    uint64_t len = 0;
    uint64_t kept_offset = 0;
    uint64_t kept_len = 0;
    uint32_t crc = 0;
    uint8_t section = 0;
  };

  /// Installs `payload` as the new diff base. `unit_crcs` (one per unit)
  /// and `payload_crc` are its CRCs, already computed by the caller.
  Status Rebase(std::string_view payload,
                const std::vector<SnapshotUnit>& units,
                const std::vector<uint32_t>& unit_crcs, uint32_t payload_crc,
                uint64_t analyzed);

  /// The base unit (section, key), or nullptr.
  const UnitSig* FindSig(uint8_t section, uint64_t key) const;

  Options options_;
  bool seeded_ = false;
  /// What patch ops need of the previous checkpoint's canonical payload:
  /// every non-window unit's bytes (prefix/suffix patches), and only the
  /// newest entry of each selector window (the ring-shift anchor). The
  /// windows are nearly all of the payload, so this is a small fraction
  /// of it — a full copy per open tuner would double the memory its
  /// statistics take.
  std::string base_bytes_;
  uint64_t root_analyzed_ = 0;
  uint64_t base_analyzed_ = 0;   // chain tail
  uint32_t base_crc_ = 0;        // chain tail payload CRC
  uint64_t deltas_in_chain_ = 0;
  /// Sorted by (section, key).
  std::vector<UnitSig> sigs_;
  /// Structural-change detection: tuner kind and (for WFIT) the
  /// repartition counter of the base payload — a repartition forces a
  /// full snapshot even though the parts would diff cleanly.
  uint8_t base_kind_ = 0;
  uint64_t base_repartitions_ = 0;
  /// journal_lsn of the retained full snapshots, oldest first; the front
  /// is the compaction horizon once two fulls are durable.
  std::deque<uint64_t> retained_full_lsns_;
};

/// Chain-aware latest-checkpoint load: tries each full snapshot newest
/// first; for a loadable full, applies its delta chain in order, stopping
/// at the first unusable delta (the reconstructed prefix still wins over
/// the bare full). A corrupt full snapshot invalidates its whole chain.
/// When `checkpointer` is non-null it is seeded with the restored chain
/// tail so subsequent writes continue the chain.
SnapshotLoadResult LoadLatestCheckpoint(const std::string& dir, Tuner* tuner,
                                        IndexPool* pool,
                                        DeltaCheckpointer* checkpointer);

}  // namespace wfit::persist

#endif  // WFIT_PERSIST_DELTA_H_
