#include "persist/delta.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"
#include "persist/codec.h"

namespace wfit::persist {

namespace {

namespace fs = std::filesystem;

constexpr uint8_t kTunerWfit = 1;
constexpr uint8_t kTunerWfaPlus = 2;

constexpr char kDeltaPrefix[] = "delta-";
constexpr char kDeltaSuffix[] = ".wfdelta";

// Delta ops, in new-payload unit order. kCopy takes the base's
// (section, key) unit verbatim; kData carries the unit's new bytes;
// kPoolAppend rebuilds the pool unit as [new count][base defs][appended];
// kPatch rebuilds the unit as a concatenation of base-unit ranges and
// shipped bytes (ring-shifted windows, common prefix/suffix reuse).
constexpr uint8_t kOpCopy = 1;
constexpr uint8_t kOpData = 2;
constexpr uint8_t kOpPoolAppend = 3;
constexpr uint8_t kOpPatch = 4;

// kOpPatch part tags.
constexpr uint8_t kPartBase = 1;  // u64 offset + u64 len into the base unit
constexpr uint8_t kPartData = 2;  // shipped bytes (string)

std::string DeltaName(uint64_t root_analyzed, uint64_t analyzed) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%s%020llu-%020llu%s", kDeltaPrefix,
                static_cast<unsigned long long>(root_analyzed),
                static_cast<unsigned long long>(analyzed), kDeltaSuffix);
  return buf;
}

bool ParseU64Fixed(std::string_view s, uint64_t* out) {
  if (s.size() != 20) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

/// snapshot-<analyzed>.wfsnap → analyzed.
bool ParseSnapshotName(const std::string& filename, uint64_t* analyzed) {
  constexpr char kPrefix[] = "snapshot-";
  constexpr char kSuffix[] = ".wfsnap";
  const size_t prefix = sizeof(kPrefix) - 1;
  const size_t suffix = sizeof(kSuffix) - 1;
  if (filename.size() != prefix + 20 + suffix) return false;
  if (filename.compare(0, prefix, kPrefix) != 0) return false;
  if (filename.compare(prefix + 20, suffix, kSuffix) != 0) return false;
  return ParseU64Fixed(std::string_view(filename).substr(prefix, 20),
                       analyzed);
}

uint64_t ReadU64Le(std::string_view bytes) {
  WFIT_CHECK(bytes.size() >= 8, "ReadU64Le needs 8 bytes");
  uint64_t v = 0;
  std::memcpy(&v, bytes.data(), 8);
  return v;
}

/// Fixed delta-payload preamble, before the op stream.
struct DeltaHeader {
  uint64_t analyzed = 0;
  uint64_t journal_lsn = 0;
  uint64_t root_analyzed = 0;
  uint64_t base_analyzed = 0;
  uint32_t base_crc = 0;
  uint32_t self_crc = 0;
  uint64_t self_len = 0;
};

Status DecodeDeltaHeader(Decoder* d, DeltaHeader* h) {
  WFIT_RETURN_IF_ERROR(d->GetU64(&h->analyzed));
  WFIT_RETURN_IF_ERROR(d->GetU64(&h->journal_lsn));
  WFIT_RETURN_IF_ERROR(d->GetU64(&h->root_analyzed));
  WFIT_RETURN_IF_ERROR(d->GetU64(&h->base_analyzed));
  WFIT_RETURN_IF_ERROR(d->GetU32(&h->base_crc));
  WFIT_RETURN_IF_ERROR(d->GetU32(&h->self_crc));
  WFIT_RETURN_IF_ERROR(d->GetU64(&h->self_len));
  return Status::Ok();
}

/// Applies a verified delta payload on top of `base`. The reconstruction
/// is checked against the delta's self CRC/length, so a unit-level CRC
/// collision at write time can never produce a wrong payload here — it
/// produces a rejected delta (chain truncates, recovery falls back).
StatusOr<std::string> ApplyDelta(std::string_view base,
                                 const std::vector<SnapshotUnit>& base_units,
                                 const DeltaHeader& h, uint32_t op_count,
                                 std::string_view ops) {
  std::map<std::pair<uint8_t, uint64_t>, const SnapshotUnit*> by_key;
  for (const SnapshotUnit& u : base_units) {
    by_key[{u.section, u.key}] = &u;
  }
  std::string out;
  out.reserve(h.self_len);
  Decoder d(ops);
  for (uint32_t i = 0; i < op_count; ++i) {
    uint8_t op = 0, section = 0;
    uint64_t key = 0;
    WFIT_RETURN_IF_ERROR(d.GetU8(&op));
    WFIT_RETURN_IF_ERROR(d.GetU8(&section));
    WFIT_RETURN_IF_ERROR(d.GetU64(&key));
    switch (op) {
      case kOpCopy: {
        auto it = by_key.find({section, key});
        if (it == by_key.end()) {
          return Status::InvalidArgument("delta: copy of unknown base unit");
        }
        out.append(base.substr(it->second->offset, it->second->len));
        break;
      }
      case kOpData: {
        std::string bytes;
        WFIT_RETURN_IF_ERROR(d.GetString(&bytes));
        out.append(bytes);
        break;
      }
      case kOpPoolAppend: {
        uint32_t new_count = 0;
        std::string appended;
        WFIT_RETURN_IF_ERROR(d.GetU32(&new_count));
        WFIT_RETURN_IF_ERROR(d.GetString(&appended));
        auto it = by_key.find({kSectionPool, 0});
        if (it == by_key.end() || it->second->len < 4) {
          return Status::InvalidArgument("delta: pool append without base");
        }
        Encoder count;
        count.PutU32(new_count);
        out.append(count.data());
        out.append(base.substr(it->second->offset + 4, it->second->len - 4));
        out.append(appended);
        break;
      }
      case kOpPatch: {
        auto it = by_key.find({section, key});
        if (it == by_key.end()) {
          return Status::InvalidArgument("delta: patch of unknown base unit");
        }
        std::string_view base_unit =
            base.substr(it->second->offset, it->second->len);
        uint32_t part_count = 0;
        WFIT_RETURN_IF_ERROR(d.GetU32(&part_count));
        for (uint32_t p = 0; p < part_count; ++p) {
          uint8_t tag = 0;
          WFIT_RETURN_IF_ERROR(d.GetU8(&tag));
          if (tag == kPartBase) {
            uint64_t off = 0, len = 0;
            WFIT_RETURN_IF_ERROR(d.GetU64(&off));
            WFIT_RETURN_IF_ERROR(d.GetU64(&len));
            if (off > base_unit.size() || len > base_unit.size() - off) {
              return Status::InvalidArgument(
                  "delta: patch range outside base unit");
            }
            out.append(base_unit.substr(off, len));
          } else if (tag == kPartData) {
            std::string bytes;
            WFIT_RETURN_IF_ERROR(d.GetString(&bytes));
            out.append(bytes);
          } else {
            return Status::InvalidArgument("delta: unknown patch part");
          }
        }
        break;
      }
      default:
        return Status::InvalidArgument("delta: unknown op");
    }
  }
  if (!d.done()) return Status::InvalidArgument("delta: trailing ops bytes");
  if (out.size() != h.self_len || Crc32(out) != h.self_crc) {
    return Status::InvalidArgument(
        "delta: reconstructed payload does not match its checksum");
  }
  return out;
}

/// One piece of a kOpPatch: a range of the base unit, or shipped bytes.
struct PatchPart {
  uint64_t off = 0;
  uint64_t len = 0;
  std::string_view data;
  bool is_base = false;
};

/// Emits `parts` as a kOpPatch for unit `u` and returns true, but only
/// when that ships materially fewer bytes than kOpData (`next_size` bytes)
/// would.
bool EmitPatchParts(const SnapshotUnit& u, size_t next_size,
                    const std::vector<PatchPart>& parts, Encoder* ops) {
  uint64_t shipped = 14;  // op + section + key + part count
  for (const PatchPart& part : parts) {
    shipped += part.is_base ? 17 : part.data.size() + 5;
  }
  if (shipped >= next_size) return false;
  ops->PutU8(kOpPatch);
  ops->PutU8(u.section);
  ops->PutU64(u.key);
  ops->PutU32(static_cast<uint32_t>(parts.size()));
  for (const PatchPart& part : parts) {
    if (part.is_base) {
      ops->PutU8(kPartBase);
      ops->PutU64(part.off);
      ops->PutU64(part.len);
    } else {
      ops->PutU8(kPartData);
      ops->PutString(part.data);
    }
  }
  return true;
}

/// Window units are [8-byte key][u32 count][count fixed 16-byte (position,
/// value) entries], oldest first.
constexpr size_t kWindowHeader = 12;
constexpr size_t kWindowEntry = 16;

bool IsWindowSection(uint8_t section) {
  return section == kSectionBenefitWindow ||
         section == kSectionInteractionWindow;
}

/// Entry count of a well-formed window unit of `len` bytes, or -1.
int64_t WindowEntries(uint64_t len) {
  if (len < kWindowHeader || (len - kWindowHeader) % kWindowEntry != 0) {
    return -1;
  }
  return static_cast<int64_t>((len - kWindowHeader) / kWindowEntry);
}

/// Ring-shift patch for a changed window unit: a window is a bounded ring
/// whose entries never change once recorded, so the new unit is
/// [header][base entries minus the k oldest][appended entries]. The base's
/// newest entry (`base_newest`, its 16 bytes) locates the shift in `next`;
/// the base's entry count is `base_entries`. Ships the header + appended
/// entries. Positions are only non-decreasing, so the shift is taken only
/// when the newest base position occurs exactly once in `next`; otherwise
/// the unit ships whole.
bool EmitRingShiftOp(const SnapshotUnit& u, std::string_view next,
                     int64_t base_entries, std::string_view base_newest,
                     Encoder* ops) {
  const int64_t nn = WindowEntries(next.size());
  if (nn < 1 || base_entries < 1 || base_newest.size() != kWindowEntry) {
    return false;
  }
  const uint64_t newest_pos = ReadU64Le(base_newest);
  int64_t match = -1;
  for (int64_t j = 0; j < nn; ++j) {
    std::string_view entry =
        next.substr(kWindowHeader + kWindowEntry * j, kWindowEntry);
    const uint64_t pos = ReadU64Le(entry);
    if (pos > newest_pos) break;  // positions ascend
    if (pos < newest_pos) continue;
    if (match >= 0 || entry != base_newest) return false;  // ambiguous
    match = j;
  }
  const int64_t surviving = match + 1;
  if (surviving < 1 || surviving > base_entries) return false;
  const uint64_t k = static_cast<uint64_t>(base_entries - surviving);
  const uint64_t kept = kWindowEntry * static_cast<uint64_t>(surviving);
  std::vector<PatchPart> parts;
  parts.push_back({0, 0, next.substr(0, kWindowHeader), false});
  parts.push_back({kWindowHeader + kWindowEntry * k, kept, {}, true});
  if (kWindowHeader + kept < next.size()) {
    parts.push_back({0, 0, next.substr(kWindowHeader + kept), false});
  }
  return EmitPatchParts(u, next.size(), parts, ops);
}

/// Tries to express the changed non-window unit `next` as a patch over
/// `base_unit`: longest common prefix + suffix, for anything with a stable
/// region (the RNG stream text between twists, a part whose recommendation
/// changed but whose work values did not, ...). Emits a kOpPatch and
/// returns true only when it ships materially fewer bytes than kOpData
/// would; correctness never depends on the match.
bool EmitPatchOp(const SnapshotUnit& u, std::string_view next,
                 std::string_view base_unit, Encoder* ops) {
  size_t p = 0;
  const size_t max_common = std::min(base_unit.size(), next.size());
  while (p < max_common && base_unit[p] == next[p]) ++p;
  size_t s = 0;
  const size_t max_suffix = max_common - p;
  while (s < max_suffix &&
         base_unit[base_unit.size() - 1 - s] == next[next.size() - 1 - s]) {
    ++s;
  }
  if (p + s < 48) return false;  // shared region under the op overhead
  std::vector<PatchPart> parts;
  if (p > 0) parts.push_back({0, p, {}, true});
  if (p + s < next.size()) {
    parts.push_back({0, 0, next.substr(p, next.size() - s - p), false});
  }
  if (s > 0) parts.push_back({base_unit.size() - s, s, {}, true});
  return EmitPatchParts(u, next.size(), parts, ops);
}

/// Crc32 of every unit's bytes, in unit order.
std::vector<uint32_t> UnitCrcs(std::string_view payload,
                               const std::vector<SnapshotUnit>& units) {
  std::vector<uint32_t> crcs;
  crcs.reserve(units.size());
  for (const SnapshotUnit& u : units) {
    crcs.push_back(Crc32(payload.substr(u.offset, u.len)));
  }
  return crcs;
}

}  // namespace

StatusOr<std::vector<SnapshotUnit>> ChunkSnapshotPayload(
    std::string_view payload) {
  // Only unit boundaries matter here, so variable-length fields are
  // stepped over (with the same bounds checks a decode would make)
  // rather than decoded.
  std::vector<SnapshotUnit> units;
  Decoder d(payload);
  auto pos = [&] {
    return static_cast<uint64_t>(payload.size() - d.remaining());
  };
  auto push = [&](uint8_t section, uint64_t key, uint64_t start) {
    units.push_back(SnapshotUnit{section, key, start, pos() - start});
  };
  // A u32 count prefix and that many `elem_size`-byte elements: a string
  // (1), an index set or u32 vector (4), a u64 or double vector (8).
  auto skip_counted = [&](size_t elem_size) -> Status {
    uint32_t count = 0;
    WFIT_RETURN_IF_ERROR(d.GetU32(&count));
    return d.Skip(count, elem_size);
  };
  // A window body: u64 key, u32 entry count, 16-byte entries.
  auto window = [&](uint8_t section) -> Status {
    const uint64_t start = pos();
    uint64_t key = 0;
    uint32_t entries = 0;
    WFIT_RETURN_IF_ERROR(d.GetU64(&key));
    WFIT_RETURN_IF_ERROR(d.GetU32(&entries));
    WFIT_RETURN_IF_ERROR(d.Skip(entries, kWindowEntry));
    push(section, key, start);
    return Status::Ok();
  };

  // Meta: analyzed + journal_lsn.
  uint64_t start = pos();
  WFIT_RETURN_IF_ERROR(d.Skip(2, 8));
  push(kSectionMeta, 0, start);

  // Pool: count + per-def (table, columns).
  start = pos();
  uint32_t pool_count = 0;
  WFIT_RETURN_IF_ERROR(d.GetU32(&pool_count));
  for (uint32_t i = 0; i < pool_count; ++i) {
    WFIT_RETURN_IF_ERROR(d.Skip(1, 4));
    WFIT_RETURN_IF_ERROR(skip_counted(4));
  }
  push(kSectionPool, 0, start);

  // Tuner header: kind tag + part count.
  start = pos();
  uint8_t kind = 0;
  WFIT_RETURN_IF_ERROR(d.GetU8(&kind));
  if (kind != kTunerWfit && kind != kTunerWfaPlus) {
    return Status::InvalidArgument("chunk: unknown tuner kind");
  }
  uint32_t parts = 0;
  WFIT_RETURN_IF_ERROR(d.GetU32(&parts));
  push(kSectionTunerHeader, 0, start);

  for (uint32_t p = 0; p < parts; ++p) {
    start = pos();
    WFIT_RETURN_IF_ERROR(skip_counted(4));  // members
    WFIT_RETURN_IF_ERROR(skip_counted(8));  // work values
    WFIT_RETURN_IF_ERROR(d.Skip(1, 4));     // recommendation
    push(kSectionPart, p, start);
  }

  if (kind == kTunerWfit) {
    start = pos();
    WFIT_RETURN_IF_ERROR(skip_counted(4));
    WFIT_RETURN_IF_ERROR(skip_counted(4));
    push(kSectionCandidates, 0, start);

    start = pos();
    WFIT_RETURN_IF_ERROR(d.Skip(2, 8));  // repartitions, feedback_events
    push(kSectionCounters, 0, start);

    start = pos();
    WFIT_RETURN_IF_ERROR(skip_counted(4));  // universe
    WFIT_RETURN_IF_ERROR(d.Skip(1, 8));     // position
    WFIT_RETURN_IF_ERROR(skip_counted(1));  // RNG stream state
    push(kSectionSelectorCore, 0, start);

    start = pos();
    uint32_t benefit = 0;
    WFIT_RETURN_IF_ERROR(d.GetU32(&benefit));
    push(kSectionBenefitCount, 0, start);
    for (uint32_t i = 0; i < benefit; ++i) {
      WFIT_RETURN_IF_ERROR(window(kSectionBenefitWindow));
    }

    start = pos();
    uint32_t interaction = 0;
    WFIT_RETURN_IF_ERROR(d.GetU32(&interaction));
    push(kSectionInteractionCount, 0, start);
    for (uint32_t i = 0; i < interaction; ++i) {
      WFIT_RETURN_IF_ERROR(window(kSectionInteractionWindow));
    }
  } else {
    start = pos();
    WFIT_RETURN_IF_ERROR(d.Skip(1, 8));  // feedback_events
    push(kSectionCounters, 0, start);
  }

  if (!d.done()) {
    start = pos();
    WFIT_RETURN_IF_ERROR(d.Skip(1, 1));     // mode
    WFIT_RETURN_IF_ERROR(d.Skip(2, 8));     // sample rate, sample seed
    WFIT_RETURN_IF_ERROR(skip_counted(8));  // dup-filter fingerprints
    push(kSectionOverload, 0, start);
  }
  if (!d.done()) {
    return Status::InvalidArgument("chunk: trailing payload bytes");
  }
  return units;
}

bool ParseDeltaName(const std::string& filename, uint64_t* root_analyzed,
                    uint64_t* analyzed) {
  const size_t prefix = sizeof(kDeltaPrefix) - 1;
  const size_t suffix = sizeof(kDeltaSuffix) - 1;
  if (filename.size() != prefix + 20 + 1 + 20 + suffix) return false;
  if (filename.compare(0, prefix, kDeltaPrefix) != 0) return false;
  if (filename[prefix + 20] != '-') return false;
  if (filename.compare(prefix + 41, suffix, kDeltaSuffix) != 0) return false;
  std::string_view body(filename);
  return ParseU64Fixed(body.substr(prefix, 20), root_analyzed) &&
         ParseU64Fixed(body.substr(prefix + 21, 20), analyzed);
}

std::vector<std::string> ListDeltas(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t root = 0, analyzed = 0;
    if (ParseDeltaName(entry.path().filename().string(), &root, &analyzed)) {
      out.push_back(entry.path().string());
    }
  }
  // Fixed-width zero-padded names: lexicographic ascending == ascending by
  // (root analyzed, analyzed).
  std::sort(out.begin(), out.end());
  return out;
}

void PruneCheckpointDir(const std::string& dir, size_t keep) {
  std::error_code ec;
  std::vector<std::string> fulls = ListSnapshots(dir);  // newest first
  std::set<uint64_t> retained_roots;
  for (size_t i = 0; i < fulls.size(); ++i) {
    uint64_t analyzed = 0;
    if (i < keep &&
        ParseSnapshotName(fs::path(fulls[i]).filename().string(),
                          &analyzed)) {
      retained_roots.insert(analyzed);
    }
    if (i >= keep) fs::remove(fulls[i], ec);
  }
  for (const std::string& path : ListDeltas(dir)) {
    uint64_t root = 0, analyzed = 0;
    ParseDeltaName(fs::path(path).filename().string(), &root, &analyzed);
    if (retained_roots.count(root) == 0) fs::remove(path, ec);
  }
}

// --- DeltaCheckpointer ---------------------------------------------------

Status DeltaCheckpointer::Rebase(std::string_view payload,
                                 const std::vector<SnapshotUnit>& units,
                                 const std::vector<uint32_t>& unit_crcs,
                                 uint32_t payload_crc, uint64_t analyzed) {
  sigs_.clear();
  sigs_.reserve(units.size());
  base_bytes_.clear();
  base_kind_ = 0;
  base_repartitions_ = 0;
  for (size_t i = 0; i < units.size(); ++i) {
    const SnapshotUnit& u = units[i];
    std::string_view bytes = payload.substr(u.offset, u.len);
    // Window units keep only their newest entry (the ring-shift anchor);
    // every other unit keeps its bytes for prefix/suffix patches.
    std::string_view kept = bytes;
    if (IsWindowSection(u.section)) {
      kept = WindowEntries(u.len) >= 1
                 ? bytes.substr(bytes.size() - kWindowEntry)
                 : std::string_view();
    }
    sigs_.push_back(UnitSig{u.key, u.len, base_bytes_.size(), kept.size(),
                            unit_crcs[i], u.section});
    base_bytes_.append(kept);
    if (u.section == kSectionTunerHeader && u.len >= 1) {
      base_kind_ = static_cast<uint8_t>(bytes[0]);
    }
    if (u.section == kSectionCounters && u.len >= 8) {
      // For WFIT the first counter is the repartition count — the
      // structural-change signal. (WFA+ has no repartitions; its counters
      // unit starts with feedback_events, which base_kind_ gates off.)
      base_repartitions_ = ReadU64Le(bytes);
    }
  }
  std::sort(sigs_.begin(), sigs_.end(), [](const UnitSig& a,
                                           const UnitSig& b) {
    return std::pair(a.section, a.key) < std::pair(b.section, b.key);
  });
  for (size_t i = 1; i < sigs_.size(); ++i) {
    if (sigs_[i - 1].section == sigs_[i].section &&
        sigs_[i - 1].key == sigs_[i].key) {
      return Status::InvalidArgument("delta: duplicate unit key");
    }
  }
  base_bytes_.shrink_to_fit();
  base_analyzed_ = analyzed;
  base_crc_ = payload_crc;
  return Status::Ok();
}

const DeltaCheckpointer::UnitSig* DeltaCheckpointer::FindSig(
    uint8_t section, uint64_t key) const {
  auto it = std::lower_bound(
      sigs_.begin(), sigs_.end(), std::pair(section, key),
      [](const UnitSig& sig, const std::pair<uint8_t, uint64_t>& want) {
        return std::pair(sig.section, sig.key) < want;
      });
  if (it == sigs_.end() || it->section != section || it->key != key) {
    return nullptr;
  }
  return &*it;
}

Status DeltaCheckpointer::Seed(std::string payload, uint64_t root_analyzed,
                               uint64_t root_journal_lsn,
                               uint64_t deltas_in_chain) {
  auto units = ChunkSnapshotPayload(payload);
  WFIT_RETURN_IF_ERROR(units.status());
  if (payload.size() < 8) {
    return Status::InvalidArgument("delta seed: short payload");
  }
  WFIT_RETURN_IF_ERROR(Rebase(payload, *units, UnitCrcs(payload, *units),
                              Crc32(payload),
                              ReadU64Le(std::string_view(payload))));
  root_analyzed_ = root_analyzed;
  deltas_in_chain_ = deltas_in_chain;
  seeded_ = true;
  retained_full_lsns_.clear();
  retained_full_lsns_.push_back(root_journal_lsn);
  return Status::Ok();
}

void DeltaCheckpointer::Reset() {
  seeded_ = false;
  root_analyzed_ = 0;
  base_analyzed_ = 0;
  base_crc_ = 0;
  deltas_in_chain_ = 0;
  sigs_.clear();
  base_bytes_.clear();
  base_kind_ = 0;
  base_repartitions_ = 0;
}

StatusOr<DeltaCheckpointer::Result> DeltaCheckpointer::Write(
    const std::string& dir, const Tuner& tuner, const IndexPool& pool,
    const SnapshotMeta& meta) {
  auto payload_or = EncodeSnapshotPayload(tuner, pool, meta);
  WFIT_RETURN_IF_ERROR(payload_or.status());
  std::string payload = std::move(payload_or).value();
  auto units_or = ChunkSnapshotPayload(payload);
  WFIT_RETURN_IF_ERROR(units_or.status());
  const std::vector<SnapshotUnit>& units = *units_or;
  // The checkpoint's only CRC passes over the payload: each unit once
  // (the diff and the next base's signatures) and the whole payload once
  // (the file header and the next base's chain CRC).
  const std::vector<uint32_t> unit_crcs = UnitCrcs(payload, units);
  const uint32_t payload_crc = Crc32(payload);

  bool want_full = !options_.enable_deltas || !seeded_ ||
                   deltas_in_chain_ >= options_.full_every;

  Encoder ops;
  uint32_t op_count = 0;
  if (!want_full) {
    for (size_t i = 0; i < units.size(); ++i) {
      const SnapshotUnit& u = units[i];
      std::string_view bytes =
          std::string_view(payload).substr(u.offset, u.len);
      const UnitSig* sig = FindSig(u.section, u.key);
      const bool unchanged =
          sig != nullptr && sig->len == u.len && sig->crc == unit_crcs[i];
      if (u.section == kSectionTunerHeader || u.section == kSectionCandidates) {
        if (!unchanged) {
          // Structural change: repartitioned part layout or candidate
          // churn — a full snapshot re-anchors the chain.
          want_full = true;
          break;
        }
        ++op_count;
        ops.PutU8(kOpCopy);
        ops.PutU8(u.section);
        ops.PutU64(u.key);
        continue;
      }
      if (u.section == kSectionCounters && base_kind_ == kTunerWfit &&
          u.len >= 8 && ReadU64Le(bytes) != base_repartitions_) {
        want_full = true;  // repartition since the base
        break;
      }
      if (unchanged) {
        ++op_count;
        ops.PutU8(kOpCopy);
        ops.PutU8(u.section);
        ops.PutU64(u.key);
        continue;
      }
      // The base pool unit is kept whole, so growth is checked exactly.
      std::string_view kept =
          sig == nullptr ? std::string_view()
                         : std::string_view(base_bytes_)
                               .substr(sig->kept_offset, sig->kept_len);
      if (u.section == kSectionPool && kept.size() >= 4 &&
          u.len > kept.size() &&
          bytes.substr(4, kept.size() - 4) == kept.substr(4)) {
        // Append-only pool growth: ship only the new definitions.
        ++op_count;
        ops.PutU8(kOpPoolAppend);
        ops.PutU8(u.section);
        ops.PutU64(u.key);
        uint32_t new_count = 0;
        std::memcpy(&new_count, bytes.data(), 4);
        ops.PutU32(new_count);
        ops.PutString(bytes.substr(kept.size()));
        continue;
      }
      if (sig != nullptr) {
        const bool patched =
            IsWindowSection(u.section)
                ? EmitRingShiftOp(u, bytes, WindowEntries(sig->len), kept,
                                  &ops)
                : EmitPatchOp(u, bytes, kept, &ops);
        if (patched) {
          ++op_count;
          continue;
        }
      }
      ++op_count;
      ops.PutU8(kOpData);
      ops.PutU8(u.section);
      ops.PutU64(u.key);
      ops.PutString(bytes);
    }
    if (!want_full &&
        static_cast<double>(ops.size()) >
            options_.max_delta_fraction * static_cast<double>(payload.size())) {
      want_full = true;  // not materially smaller than a full snapshot
    }
  }

  Result result;
  if (want_full) {
    auto bytes = WriteSnapshotPayload(dir, payload, payload_crc, meta.analyzed);
    WFIT_RETURN_IF_ERROR(bytes.status());
    const size_t keep = std::max<size_t>(options_.keep_chains, 1);
    retained_full_lsns_.push_back(meta.journal_lsn);
    while (retained_full_lsns_.size() > keep) {
      retained_full_lsns_.pop_front();
    }
    PruneCheckpointDir(dir, keep);
    WFIT_RETURN_IF_ERROR(
        Rebase(payload, units, unit_crcs, payload_crc, meta.analyzed));
    root_analyzed_ = meta.analyzed;
    deltas_in_chain_ = 0;
    seeded_ = true;
    result.bytes = *bytes;
    result.wrote_full = true;
    // Compactable only once TWO fulls are durable: a lone snapshot that
    // later proves corrupt must still have its journal prefix to replay.
    result.cover_lsn = retained_full_lsns_.size() >= 2
                           ? retained_full_lsns_.front()
                           : 0;
    return result;
  }

  Encoder delta;
  delta.PutU64(meta.analyzed);
  delta.PutU64(meta.journal_lsn);
  delta.PutU64(root_analyzed_);
  delta.PutU64(base_analyzed_);
  delta.PutU32(base_crc_);
  delta.PutU32(payload_crc);
  delta.PutU64(payload.size());
  delta.PutU32(op_count);
  delta.PutString(ops.data());
  auto bytes = WriteFramedFileDurable(
      dir, DeltaName(root_analyzed_, meta.analyzed), kDeltaMagic,
      kDeltaVersion, delta.data(), Crc32(delta.data()));
  WFIT_RETURN_IF_ERROR(bytes.status());
  WFIT_RETURN_IF_ERROR(
      Rebase(payload, units, unit_crcs, payload_crc, meta.analyzed));
  ++deltas_in_chain_;
  result.bytes = *bytes;
  result.wrote_full = false;
  result.cover_lsn = 0;
  return result;
}

// --- chain-aware recovery ------------------------------------------------

SnapshotLoadResult LoadLatestCheckpoint(const std::string& dir, Tuner* tuner,
                                        IndexPool* pool,
                                        DeltaCheckpointer* checkpointer) {
  SnapshotLoadResult result;
  std::vector<std::string> deltas = ListDeltas(dir);
  for (const std::string& full_path : ListSnapshots(dir)) {
    uint64_t root_analyzed = 0;
    if (!ParseSnapshotName(fs::path(full_path).filename().string(),
                          &root_analyzed)) {
      ++result.skipped;
      continue;
    }
    auto root_payload =
        ReadFramedFile(full_path, kSnapshotMagic, kSnapshotVersion);
    if (!root_payload.ok()) {
      // A corrupt full snapshot invalidates every delta chained to it:
      // the chain is not even attempted.
      ++result.skipped;
      continue;
    }
    std::string cur = std::move(root_payload).value();
    // Root journal LSN (the chain's compaction anchor) is the second u64
    // of the root payload; grab it before deltas replace the bytes.
    const uint64_t root_lsn =
        cur.size() >= 16 ? ReadU64Le(std::string_view(cur).substr(8)) : 0;
    uint64_t cur_analyzed = root_analyzed;
    uint32_t cur_crc = Crc32(cur);
    uint64_t applied = 0;
    uint64_t chain_skipped = 0;
    for (const std::string& delta_path : deltas) {
      uint64_t root = 0, analyzed = 0;
      ParseDeltaName(fs::path(delta_path).filename().string(), &root,
                     &analyzed);
      if (root != root_analyzed || analyzed <= cur_analyzed) continue;
      auto delta_payload =
          ReadFramedFile(delta_path, kDeltaMagic, kDeltaVersion);
      if (!delta_payload.ok()) {
        ++chain_skipped;  // truncate the chain here; keep the prefix
        break;
      }
      Decoder d(*delta_payload);
      DeltaHeader h;
      uint32_t op_count = 0;
      std::string ops;
      Status st = DecodeDeltaHeader(&d, &h);
      if (st.ok()) st = d.GetU32(&op_count);
      if (st.ok()) st = d.GetString(&ops);
      if (st.ok() && !d.done()) {
        st = Status::InvalidArgument("delta: trailing bytes");
      }
      if (st.ok() &&
          (h.root_analyzed != root_analyzed || h.analyzed != analyzed ||
           h.base_analyzed != cur_analyzed || h.base_crc != cur_crc)) {
        st = Status::InvalidArgument("delta: base mismatch");
      }
      if (st.ok()) {
        auto base_units = ChunkSnapshotPayload(cur);
        if (!base_units.ok()) {
          st = base_units.status();
        } else {
          auto next = ApplyDelta(cur, *base_units, h, op_count, ops);
          if (!next.ok()) {
            st = next.status();
          } else {
            cur = std::move(next).value();
            cur_analyzed = h.analyzed;
            cur_crc = h.self_crc;  // ApplyDelta verified it
            ++applied;
          }
        }
      }
      if (!st.ok()) {
        ++chain_skipped;
        break;
      }
    }

    SnapshotMeta meta;
    if (!DecodeSnapshotPayload(cur, tuner, pool, &meta).ok()) {
      ++result.skipped;
      continue;
    }
    result.loaded = true;
    result.meta = meta;
    result.path = full_path;
    result.skipped += chain_skipped;
    result.deltas_applied = applied;
    if (checkpointer != nullptr) {
      if (!checkpointer->Seed(std::move(cur), root_analyzed, root_lsn,
                              applied)
               .ok()) {
        checkpointer->Reset();
      }
    }
    return result;
  }
  return result;
}

}  // namespace wfit::persist
