#include "persist/delta.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/wfit.h"
#include "persist/codec.h"
#include "persist/snapshot.h"
#include "tests/test_util.h"

namespace wfit::persist {
namespace {

namespace fs = std::filesystem;
using wfit::testing::TestDb;

WfitOptions FastOptions() {
  WfitOptions options;
  options.candidates.idx_cnt = 8;
  options.candidates.state_cnt = 64;
  options.candidates.hist_size = 50;
  options.candidates.creation_penalty_factor = 1e-6;
  return options;
}

Workload BuildWorkload(TestDb& db, size_t n) {
  const char* shapes[] = {
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150",
      "SELECT count(*) FROM t1 WHERE b BETWEEN 100 AND 220",
      "SELECT count(*) FROM t1, t2 WHERE t1.k = t2.fk AND t1.a = 5",
      "SELECT count(*) FROM t2 WHERE x BETWEEN 10 AND 40",
      "UPDATE t1 SET d = 1 WHERE a = 77",
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150 AND c = 3",
      "SELECT count(*) FROM t3 WHERE v = 9",
      "UPDATE t2 SET y = 2 WHERE x = 17",
  };
  Workload w;
  for (size_t i = 0; i < n; ++i) {
    w.push_back(db.Bind(shapes[i % (sizeof(shapes) / sizeof(shapes[0]))]));
  }
  return w;
}

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) /
                 ("wfit_delta_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

void FlipByte(const std::string& path, size_t offset_from_mid) {
  std::string contents = ReadFile(path);
  ASSERT_GT(contents.size(), offset_from_mid + 32);
  contents[contents.size() / 2 + offset_from_mid] ^= 0x5A;
  WriteFile(path, contents);
}

SnapshotMeta MetaAt(uint64_t analyzed, uint64_t lsn) {
  SnapshotMeta meta;
  meta.analyzed = analyzed;
  meta.journal_lsn = lsn;
  return meta;
}

/// Statements in the chain fixture's workload.
constexpr size_t kWorkloadLen = 320;

/// Fixture state for a chain-building run: one tuner advanced through a
/// deterministic workload, checkpointed at chosen points.
struct ChainRun {
  ChainRun() : tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions()) {
    workload = BuildWorkload(db, kWorkloadLen);
  }
  void AdvanceTo(size_t n) {
    while (at < n) tuner.AnalyzeQuery(workload[at++]);
  }
  TestDb db;
  Workload workload;
  Wfit tuner;
  size_t at = 0;
};

/// Chain tests checkpoint inside a stretch of kStableSpan statements in
/// which the tuner does not repartition, so checkpoints diff as deltas
/// instead of being (correctly) forced full by structural change (the
/// repartition count is the delta writer's structural-change signal).
/// StableStart() is the first statement count B >= 100 after which the
/// next kStableSpan statements keep RepartitionCount(); it is derived from
/// a reference run rather than pinned, because where this workload's
/// partition settles depends on the tuner's numerics. The early churny
/// region is what FullForcedEveryKDeltas-style tests would trip over.
constexpr size_t kStableSpan = 24;
/// Statements a test may replay past the end of the stretch.
constexpr size_t kReplayTail = 76;

size_t StableStart() {
  static const size_t start = [] {
    ChainRun run;
    std::vector<uint64_t> reps = {run.tuner.RepartitionCount()};
    for (size_t n = 1; n <= kWorkloadLen; ++n) {
      run.AdvanceTo(n);
      reps.push_back(run.tuner.RepartitionCount());
    }
    for (size_t b = 100; b + kStableSpan + kReplayTail <= kWorkloadLen; ++b) {
      if (reps[b] == reps[b + kStableSpan]) return b;
    }
    return size_t{0};
  }();
  EXPECT_NE(start, 0u) << "no repartition-free stretch in the workload";
  return start;
}

// --- the chain rule, pinned before deltas exist --------------------------

// A corrupt *full* snapshot must invalidate every delta chained to it: the
// loader falls back to the previous full snapshot (or a cold start), never
// to a delta whose base is gone. This is the PR 3 fallback fix extended to
// chains — without it, a delta applied onto the wrong base would decode
// garbage or, worse, a plausible-but-divergent trajectory.
TEST(DeltaChainTest, CorruptFullSnapshotInvalidatesChainedDeltas) {
  const std::string dir = FreshDir("corrupt_base");
  const size_t b = StableStart();
  ChainRun run;

  DeltaCheckpointer::Options copts;
  copts.full_every = 100;  // never force a full mid-test
  DeltaCheckpointer cp(copts);

  // Chain 0: a full snapshot at b+4 (the fallback target).
  run.AdvanceTo(b + 4);
  auto r0 = cp.Write(dir, run.tuner, run.db.pool(), MetaAt(b + 4, b + 4));
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  EXPECT_TRUE(r0->wrote_full);

  // Chain 1: full at b+12, deltas at b+18 and b+24.
  cp.Reset();
  run.AdvanceTo(b + 12);
  auto r1 = cp.Write(dir, run.tuner, run.db.pool(), MetaAt(b + 12, b + 12));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1->wrote_full);
  run.AdvanceTo(b + 18);
  auto r2 = cp.Write(dir, run.tuner, run.db.pool(), MetaAt(b + 18, b + 18));
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_FALSE(r2->wrote_full);
  run.AdvanceTo(b + 24);
  auto r3 = cp.Write(dir, run.tuner, run.db.pool(), MetaAt(b + 24, b + 24));
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_FALSE(r3->wrote_full);

  // Damage chain 1's full snapshot (payload byte flip).
  std::vector<std::string> fulls = ListSnapshots(dir);
  ASSERT_EQ(fulls.size(), 2u);  // newest first: b+12, b+4
  FlipByte(fulls[0], 0);

  // The loader must land on the chain-0 full at b+4 — NOT on a delta of
  // the damaged chain, even though those files are newer and intact.
  TestDb db2;
  Wfit restored(&db2.pool(), &db2.optimizer(), IndexSet{}, FastOptions());
  SnapshotLoadResult loaded =
      LoadLatestCheckpoint(dir, &restored, &db2.pool(), nullptr);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.meta.analyzed, b + 4);
  EXPECT_EQ(loaded.deltas_applied, 0u);
  EXPECT_GE(loaded.skipped, 1u);

  // And the restored state really is the statement-(b+4) state: a
  // reference run advanced to b+4 continues bit-identically with it.
  ChainRun ref;
  ref.AdvanceTo(b + 4);
  EXPECT_EQ(restored.Recommendation(), ref.tuner.Recommendation());
  Workload w2 = BuildWorkload(db2, kWorkloadLen);
  for (size_t i = b + 4; i < b + 80; ++i) {
    ref.tuner.AnalyzeQuery(ref.workload[i]);
    restored.AnalyzeQuery(w2[i]);
  }
  EXPECT_EQ(restored.Recommendation(), ref.tuner.Recommendation());
  EXPECT_EQ(restored.TotalStates(), ref.tuner.TotalStates());
}

// --- chain round trips ---------------------------------------------------

TEST(DeltaChainTest, FullPlusDeltasRestoreTheChainTailExactly) {
  const std::string dir = FreshDir("roundtrip");
  const size_t b = StableStart();
  ChainRun run;

  DeltaCheckpointer cp;
  run.AdvanceTo(b + 4);
  auto rf = cp.Write(dir, run.tuner, run.db.pool(), MetaAt(b + 4, b + 4));
  ASSERT_TRUE(rf.ok());
  EXPECT_TRUE(rf->wrote_full);
  const uint64_t full_bytes = rf->bytes;

  run.AdvanceTo(b + 10);
  auto rd1 = cp.Write(dir, run.tuner, run.db.pool(), MetaAt(b + 10, b + 10));
  ASSERT_TRUE(rd1.ok());
  EXPECT_FALSE(rd1->wrote_full);
  // Deltas must pay for themselves: a 6-statement gap in this fixture
  // still churns every selector window, so this bound is what the
  // ring-shift patch ops buy.
  EXPECT_LT(rd1->bytes, full_bytes / 2);

  run.AdvanceTo(b + 16);
  auto rd2 = cp.Write(dir, run.tuner, run.db.pool(), MetaAt(b + 16, b + 16));
  ASSERT_TRUE(rd2.ok());
  EXPECT_FALSE(rd2->wrote_full);

  TestDb db2;
  Wfit restored(&db2.pool(), &db2.optimizer(), IndexSet{}, FastOptions());
  SnapshotLoadResult loaded =
      LoadLatestCheckpoint(dir, &restored, &db2.pool(), nullptr);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.meta.analyzed, b + 16);
  EXPECT_EQ(loaded.meta.journal_lsn, b + 16);
  EXPECT_EQ(loaded.deltas_applied, 2u);
  EXPECT_EQ(loaded.skipped, 0u);

  // Bit-for-bit: the reconstructed chain tail continues identically.
  EXPECT_EQ(restored.Recommendation(), run.tuner.Recommendation());
  EXPECT_EQ(restored.FeedbackCount(), run.tuner.FeedbackCount());
  Workload w2 = BuildWorkload(db2, kWorkloadLen);
  for (size_t i = b + 16; i < b + 100; ++i) {
    run.tuner.AnalyzeQuery(run.workload[i]);
    restored.AnalyzeQuery(w2[i]);
  }
  EXPECT_EQ(restored.Recommendation(), run.tuner.Recommendation());
  EXPECT_EQ(restored.RepartitionCount(), run.tuner.RepartitionCount());
  EXPECT_EQ(restored.TotalStates(), run.tuner.TotalStates());
}

TEST(DeltaChainTest, CorruptDeltaTruncatesTheChainThere) {
  const std::string dir = FreshDir("corrupt_delta");
  const size_t b = StableStart();
  ChainRun run;

  DeltaCheckpointer cp;
  for (size_t n : {b + 4, b + 10, b + 16}) {
    run.AdvanceTo(n);
    ASSERT_TRUE(cp.Write(dir, run.tuner, run.db.pool(), MetaAt(n, n)).ok());
  }

  // Damage the *newest* delta: the chain prefix (full@b+4 + delta@b+10)
  // must still restore.
  std::vector<std::string> deltas = ListDeltas(dir);
  ASSERT_EQ(deltas.size(), 2u);
  FlipByte(deltas.back(), 1);

  TestDb db2;
  Wfit restored(&db2.pool(), &db2.optimizer(), IndexSet{}, FastOptions());
  SnapshotLoadResult loaded =
      LoadLatestCheckpoint(dir, &restored, &db2.pool(), nullptr);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.meta.analyzed, b + 10);
  EXPECT_EQ(loaded.deltas_applied, 1u);
  EXPECT_GE(loaded.skipped, 1u);

  ChainRun ref;
  ref.AdvanceTo(b + 10);
  EXPECT_EQ(restored.Recommendation(), ref.tuner.Recommendation());
}

TEST(DeltaChainTest, FullForcedEveryKDeltas) {
  const std::string dir = FreshDir("full_every");
  const size_t b = StableStart();
  ChainRun run;

  DeltaCheckpointer::Options copts;
  copts.full_every = 2;
  DeltaCheckpointer cp(copts);
  size_t fulls = 0;
  for (size_t n = b; n <= b + 24; n += 4) {
    run.AdvanceTo(n);
    auto r = cp.Write(dir, run.tuner, run.db.pool(), MetaAt(n, n));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->wrote_full) ++fulls;
  }
  // 7 writes with full_every=2: full, d, d, full, d, d, full.
  EXPECT_EQ(fulls, 3u);
}

TEST(DeltaChainTest, SeededCheckpointerContinuesTheChainAcrossRestart) {
  const std::string dir = FreshDir("seeded");
  const size_t b = StableStart();
  ChainRun run;

  DeltaCheckpointer cp;
  for (size_t n : {b + 4, b + 10}) {
    run.AdvanceTo(n);
    ASSERT_TRUE(cp.Write(dir, run.tuner, run.db.pool(), MetaAt(n, n)).ok());
  }

  // "Restart": load with a fresh checkpointer, advance, checkpoint again —
  // the new checkpoint must be a delta on the restored chain, not a full.
  TestDb db2;
  Wfit restored(&db2.pool(), &db2.optimizer(), IndexSet{}, FastOptions());
  DeltaCheckpointer cp2;
  SnapshotLoadResult loaded =
      LoadLatestCheckpoint(dir, &restored, &db2.pool(), &cp2);
  ASSERT_TRUE(loaded.loaded);
  ASSERT_TRUE(cp2.seeded());
  EXPECT_EQ(cp2.deltas_in_chain(), 1u);

  Workload w2 = BuildWorkload(db2, kWorkloadLen);
  for (size_t i = b + 10; i < b + 16; ++i) restored.AnalyzeQuery(w2[i]);
  auto r = cp2.Write(dir, restored, db2.pool(), MetaAt(b + 16, b + 16));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->wrote_full);

  // The extended chain still restores to the exact statement-(b+16) state.
  run.AdvanceTo(b + 16);
  TestDb db3;
  Wfit again(&db3.pool(), &db3.optimizer(), IndexSet{}, FastOptions());
  SnapshotLoadResult l3 = LoadLatestCheckpoint(dir, &again, &db3.pool(),
                                               nullptr);
  ASSERT_TRUE(l3.loaded);
  EXPECT_EQ(l3.meta.analyzed, b + 16);
  EXPECT_EQ(l3.deltas_applied, 2u);
  EXPECT_EQ(again.Recommendation(), run.tuner.Recommendation());
  EXPECT_EQ(again.TotalStates(), run.tuner.TotalStates());
}

TEST(DeltaChainTest, PruneDropsOrphanedDeltasWithTheirChain) {
  const std::string dir = FreshDir("prune");
  ChainRun run;

  DeltaCheckpointer::Options copts;
  copts.full_every = 1;  // every other write is a full
  copts.keep_chains = 2;
  DeltaCheckpointer cp(copts);
  for (size_t n = 10; n <= 80; n += 10) {
    run.AdvanceTo(n);
    ASSERT_TRUE(cp.Write(dir, run.tuner, run.db.pool(), MetaAt(n, n)).ok());
  }
  // Only the 2 newest fulls survive, and every remaining delta's root is
  // one of them.
  std::vector<std::string> fulls = ListSnapshots(dir);
  EXPECT_EQ(fulls.size(), 2u);
  for (const std::string& path : ListDeltas(dir)) {
    uint64_t root = 0, analyzed = 0;
    ASSERT_TRUE(ParseDeltaName(fs::path(path).filename().string(), &root,
                               &analyzed));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%020llu",
                  static_cast<unsigned long long>(root));
    bool retained = false;
    for (const std::string& f : fulls) {
      if (f.find(buf) != std::string::npos) retained = true;
    }
    EXPECT_TRUE(retained) << path << " orphaned";
  }
}

TEST(DeltaChainTest, CoverLsnRequiresTwoDurableFulls) {
  const std::string dir = FreshDir("cover");
  const size_t b = StableStart();
  ChainRun run;

  DeltaCheckpointer::Options copts;
  copts.full_every = 1;
  DeltaCheckpointer cp(copts);
  run.AdvanceTo(b + 4);
  auto r1 = cp.Write(dir, run.tuner, run.db.pool(), MetaAt(b + 4, 100));
  ASSERT_TRUE(r1.ok());
  // One full: nothing compactable yet (a lone snapshot's failure would
  // otherwise orphan the journal prefix).
  EXPECT_EQ(r1->cover_lsn, 0u);

  run.AdvanceTo(b + 8);
  auto r2 = cp.Write(dir, run.tuner, run.db.pool(), MetaAt(b + 8, 150));
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->wrote_full);  // first delta of the chain
  EXPECT_EQ(r2->cover_lsn, 0u);  // deltas never advance the horizon
  run.AdvanceTo(b + 12);
  auto r3 = cp.Write(dir, run.tuner, run.db.pool(), MetaAt(b + 12, 200));
  ASSERT_TRUE(r3.ok());
  ASSERT_TRUE(r3->wrote_full);
  // Retained full snapshots are now lsn 100 and lsn 200: records below
  // 100 are reflected in both, so that prefix is safely compactable.
  EXPECT_EQ(r3->cover_lsn, 100u);
}

// Every checkpoint of a run that repartitions (fulls) and churns its
// windows (deltas) must load back to exactly the state it was written
// from. A unit CRC paired with the wrong unit would mark a changed unit
// unchanged; the loader would then reject that delta and silently fall
// back to an older state, which this test sees as a skip or a stale
// analyzed count.
TEST(DeltaChainTest, EveryCheckpointOfAChurnyRunLoadsBackExactly) {
  const std::string dir = FreshDir("every_checkpoint");
  ChainRun run;
  DeltaCheckpointer cp;
  size_t fulls = 0, deltas = 0;
  for (size_t n = 4; n <= kWorkloadLen; n += 4) {
    run.AdvanceTo(n);
    const SnapshotMeta meta = MetaAt(n, n);
    auto r = cp.Write(dir, run.tuner, run.db.pool(), meta);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ++(r->wrote_full ? fulls : deltas);

    TestDb db2;
    Wfit restored(&db2.pool(), &db2.optimizer(), IndexSet{}, FastOptions());
    SnapshotLoadResult loaded =
        LoadLatestCheckpoint(dir, &restored, &db2.pool(), nullptr);
    ASSERT_TRUE(loaded.loaded) << "after statement " << n;
    ASSERT_EQ(loaded.skipped, 0u) << "after statement " << n;
    ASSERT_EQ(loaded.meta.analyzed, n);
    auto live = EncodeSnapshotPayload(run.tuner, run.db.pool(), meta);
    auto back = EncodeSnapshotPayload(restored, db2.pool(), loaded.meta);
    ASSERT_TRUE(live.ok() && back.ok());
    ASSERT_TRUE(*back == *live) << "restored state differs after " << n;
  }
  EXPECT_GT(fulls, 1u);
  EXPECT_GT(deltas, fulls);
}

// --- chunker -------------------------------------------------------------

TEST(DeltaChainTest, ChunkerCoversEveryPayloadByteContiguously) {
  ChainRun run;
  run.AdvanceTo(45);
  auto payload = EncodeSnapshotPayload(run.tuner, run.db.pool(),
                                       MetaAt(45, 45));
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  auto units = ChunkSnapshotPayload(*payload);
  ASSERT_TRUE(units.ok()) << units.status().ToString();
  ASSERT_FALSE(units->empty());
  uint64_t pos = 0;
  for (const SnapshotUnit& u : *units) {
    EXPECT_EQ(u.offset, pos) << "gap before section "
                             << static_cast<int>(u.section);
    pos += u.len;
  }
  EXPECT_EQ(pos, payload->size());
  EXPECT_EQ((*units)[0].section, kSectionMeta);
  EXPECT_EQ((*units)[0].len, 16u);

  // The chunker steps over fields instead of decoding them; a truncated
  // payload must still be rejected. The one valid prefix is the payload
  // without its optional overload trailer.
  ASSERT_EQ(units->back().section, kSectionOverload);
  const uint64_t trailer = units->back().offset;
  for (size_t len = 0; len < payload->size(); ++len) {
    const bool ok =
        ChunkSnapshotPayload(std::string_view(*payload).substr(0, len)).ok();
    ASSERT_EQ(ok, len == trailer) << "prefix of " << len << " bytes";
  }
}

TEST(DeltaChainTest, PoolGrowthShipsOnlyAppendedDefinitions) {
  const std::string dir = FreshDir("pool_append");
  ChainRun run;

  DeltaCheckpointer cp;
  run.AdvanceTo(30);
  ASSERT_TRUE(cp.Write(dir, run.tuner, run.db.pool(), MetaAt(30, 30)).ok());
  const size_t pool_before = run.db.pool().size();
  // Advance through statements that intern new candidate indexes.
  run.AdvanceTo(60);
  auto r = cp.Write(dir, run.tuner, run.db.pool(), MetaAt(60, 60));
  ASSERT_TRUE(r.ok());

  TestDb db2;
  Wfit restored(&db2.pool(), &db2.optimizer(), IndexSet{}, FastOptions());
  SnapshotLoadResult loaded =
      LoadLatestCheckpoint(dir, &restored, &db2.pool(), nullptr);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(db2.pool().size(), run.db.pool().size());
  EXPECT_GE(run.db.pool().size(), pool_before);
  EXPECT_EQ(restored.Recommendation(), run.tuner.Recommendation());
}

// Window positions are only non-decreasing. A window whose newest entry
// appears twice gives the ring-shift matcher two candidate shifts; the
// delta must still reconstruct the window exactly.
TEST(DeltaChainTest, RepeatedWindowPositionsRestoreExactly) {
  const std::string dir = FreshDir("repeated_positions");
  ChainRun run;
  run.AdvanceTo(30);
  WfitState state = run.tuner.ExportState();
  ASSERT_FALSE(state.selector.benefit_windows.empty());
  const uint64_t p = state.selector.position;
  auto& window = state.selector.benefit_windows.front().second;

  // Long enough that a ring-shift patch beats shipping the unit whole.
  window.clear();
  for (uint64_t i = 0; i < 20; ++i) window.emplace_back(p - 25 + i, 1.0 + i);
  window.emplace_back(p - 1, 2.0);
  window.emplace_back(p - 1, 2.0);
  DeltaCheckpointer cp;
  Wfit base(&run.db.pool(), &run.db.optimizer(), IndexSet{}, FastOptions());
  ASSERT_TRUE(base.RestoreState(state).ok());
  auto rf = cp.Write(dir, base, run.db.pool(), MetaAt(30, 30));
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(rf->wrote_full);

  window.emplace_back(p, 3.0);
  Wfit next(&run.db.pool(), &run.db.optimizer(), IndexSet{}, FastOptions());
  ASSERT_TRUE(next.RestoreState(state).ok());
  auto rd = cp.Write(dir, next, run.db.pool(), MetaAt(31, 31));
  ASSERT_TRUE(rd.ok());
  ASSERT_FALSE(rd->wrote_full);

  TestDb db2;
  Wfit restored(&db2.pool(), &db2.optimizer(), IndexSet{}, FastOptions());
  SnapshotLoadResult loaded =
      LoadLatestCheckpoint(dir, &restored, &db2.pool(), nullptr);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.meta.analyzed, 31u);
  EXPECT_EQ(loaded.deltas_applied, 1u);
  EXPECT_EQ(loaded.skipped, 0u);
  EXPECT_EQ(restored.ExportState().selector.benefit_windows,
            state.selector.benefit_windows);
}

}  // namespace
}  // namespace wfit::persist
