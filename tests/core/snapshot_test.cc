// Analysis-snapshot serialization: .lockdb round trips must preserve every
// store (database, string pool, lock classes, interned sequences,
// observation groups), re-serialization must be byte-identical, the on-disk
// bytes are pinned by a golden fixture, and corrupt input of any shape must
// come back as a Status error — never an abort.
#include "src/core/snapshot.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "tests/core/test_helpers.h"

namespace lockdoc {
namespace {

std::string GoldenPathV1() {
  return std::string(LOCKDOC_TESTDATA_DIR) + "/golden_mini.lockdb";
}
std::string GoldenPathV2() {
  return std::string(LOCKDOC_TESTDATA_DIR) + "/golden_mini_v2.lockdb";
}

// A deterministic little world that populates every section: strings,
// tables, a global and an embedded lock, and several observation groups.
TestWorld MakeWorld() {
  TestWorld world;
  FunctionScope fn(*world.sim, "fs/widget.c", "widget_ops", 1, 90);
  ObjectRef obj = world.sim->Create(world.type, kNoSubclass, 1);
  for (int i = 0; i < 6; ++i) {
    world.sim->LockGlobal(world.global_a, 10);
    world.sim->Lock(obj, world.spin, 11);
    world.sim->Write(obj, world.data, 12);
    world.sim->Read(obj, world.extra, 13);
    world.sim->Unlock(obj, world.spin, 14);
    world.sim->UnlockGlobal(world.global_a, 15);
  }
  world.sim->Write(obj, world.data, 66);  // Lockless outlier.
  world.sim->Destroy(obj, 89);
  return world;
}

void ExpectSameRules(const std::vector<DerivationResult>& a,
                     const std::vector<DerivationResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].access, b[i].access);
    EXPECT_EQ(a[i].total, b[i].total);
    ASSERT_EQ(a[i].winner.has_value(), b[i].winner.has_value());
    if (a[i].winner.has_value()) {
      EXPECT_EQ(LockSeqToString(a[i].winner->locks), LockSeqToString(b[i].winner->locks));
      EXPECT_EQ(a[i].winner->sa, b[i].winner->sa);
    }
  }
}

TEST(SnapshotTest, RoundTripPreservesEveryStore) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  std::string bytes = SerializeSnapshot(snapshot, *world.registry);

  auto restored = DeserializeSnapshot(bytes, *world.registry);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  const AnalysisSnapshot& loaded = restored.value();

  // Database: same tables, same shapes, same strings.
  ASSERT_EQ(loaded.db.TableNames(), snapshot.db.TableNames());
  for (const std::string& name : snapshot.db.TableNames()) {
    EXPECT_EQ(loaded.db.table(name).row_count(), snapshot.db.table(name).row_count()) << name;
  }
  ASSERT_EQ(loaded.db.strings().size(), snapshot.db.strings().size());
  for (StringId id = 0; id < snapshot.db.strings().size(); ++id) {
    EXPECT_EQ(loaded.db.String(id), snapshot.db.String(id));
  }

  // Stats.
  EXPECT_EQ(loaded.import_stats.accesses_kept, snapshot.import_stats.accesses_kept);
  EXPECT_EQ(loaded.import_stats.txns, snapshot.import_stats.txns);
  EXPECT_EQ(loaded.trace_stats.total_events, snapshot.trace_stats.total_events);
  EXPECT_EQ(loaded.trace_stats.ToString(), snapshot.trace_stats.ToString());

  // Observations: identical groups, identical derived rules.
  EXPECT_EQ(loaded.observations.groups().size(), snapshot.observations.groups().size());
  ExpectSameRules(AnalyzeSnapshot(loaded), AnalyzeSnapshot(snapshot));
}

TEST(SnapshotTest, ReserializationIsByteIdentical) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  std::string bytes = SerializeSnapshot(snapshot, *world.registry);
  auto restored = DeserializeSnapshot(bytes, *world.registry);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(SerializeSnapshot(restored.value(), *world.registry), bytes);
}

// Pins the exact on-disk bytes. If this fails, the format changed: bump
// the format version and regenerate the fixture by running this binary with
// LOCKDOC_REGEN_GOLDEN=1 from the source tree.
TEST(SnapshotTest, GoldenFixtureBytesArePinned) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  const std::string bytes = SerializeSnapshot(snapshot, *world.registry);

  if (std::getenv("LOCKDOC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPathV2(), std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << bytes;
    GTEST_SKIP() << "regenerated " << GoldenPathV2();
  }

  std::ifstream in(GoldenPathV2(), std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing fixture " << GoldenPathV2();
  std::ostringstream golden;
  golden << in.rdbuf();
  ASSERT_EQ(bytes.size(), golden.str().size());
  EXPECT_EQ(bytes, golden.str());

  auto restored = DeserializeSnapshot(golden.str(), *world.registry);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored.value().observations.groups().size(),
            snapshot.observations.groups().size());
}

// golden_mini.lockdb is a snapshot in the retired LOCKDB01 container. Every
// way in — bytes, mapped file, registry peek — fails with the one typed
// error that tells the user to re-import from the trace.
TEST(SnapshotTest, RetiredV1ContainerFailsWithReimportError) {
  TestWorld world = MakeWorld();
  std::ifstream in(GoldenPathV1(), std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing fixture " << GoldenPathV1();
  std::ostringstream v1;
  v1 << in.rdbuf();
  ASSERT_EQ(SnapshotContainerVersion(v1.str()), 1u);
  EXPECT_TRUE(IsSnapshotFile(GoldenPathV1()));

  auto expect_reimport_error = [](const Status& status, const char* via) {
    ASSERT_FALSE(status.ok()) << via;
    EXPECT_NE(status.message().find("LOCKDB01"), std::string::npos) << via;
    EXPECT_NE(status.message().find("re-import from the trace with `lockdoc import`"),
              std::string::npos)
        << via << ": " << status.message();
  };
  auto deserialized = DeserializeSnapshot(v1.str(), *world.registry);
  ASSERT_FALSE(deserialized.ok());
  expect_reimport_error(deserialized.status(), "DeserializeSnapshot");
  auto loaded = LoadSnapshot(GoldenPathV1(), *world.registry);
  ASSERT_FALSE(loaded.ok());
  expect_reimport_error(loaded.status(), "LoadSnapshot");
  auto peeked = PeekSnapshotTypeCount(GoldenPathV1());
  ASSERT_FALSE(peeked.ok());
  expect_reimport_error(peeked.status(), "PeekSnapshotTypeCount");
}

TEST(SnapshotTest, RegistryShapeMismatchIsRejected) {
  TestWorld world = MakeWorld();
  std::string bytes =
      SerializeSnapshot(BuildSnapshot(world.trace, *world.registry), *world.registry);

  TypeRegistry other;
  auto restored = DeserializeSnapshot(bytes, other);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("registry"), std::string::npos);
}

TEST(SnapshotTest, EveryByteFlipFailsAsStatusNotAbort) {
  TestWorld world = MakeWorld();
  std::string pristine =
      SerializeSnapshot(BuildSnapshot(world.trace, *world.registry), *world.registry);
  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string bytes = pristine;
    bytes[i] ^= 0x20;
    auto restored = DeserializeSnapshot(bytes, *world.registry);
    EXPECT_FALSE(restored.ok()) << "undetected flip at offset " << i;
  }
}

TEST(SnapshotTest, ReorderedAndMissingSectionsAreRejected) {
  TestWorld world = MakeWorld();
  std::string pristine =
      SerializeSnapshot(BuildSnapshot(world.trace, *world.registry), *world.registry);
  auto sections = ScanSnapshotSections(pristine);
  ASSERT_TRUE(sections.ok());
  const auto& parsed = sections.value();
  ASSERT_GE(parsed.size(), 4u);

  {
    // Swap the first two sections: container-valid, semantically wrong.
    SnapshotWriter writer;
    writer.AddSection(static_cast<SnapshotSectionType>(parsed[1].type), parsed[1].payload);
    writer.AddSection(static_cast<SnapshotSectionType>(parsed[0].type), parsed[0].payload);
    for (size_t i = 2; i < parsed.size(); ++i) {
      writer.AddSection(static_cast<SnapshotSectionType>(parsed[i].type), parsed[i].payload);
    }
    EXPECT_FALSE(DeserializeSnapshot(writer.Finish(), *world.registry).ok());
  }
  {
    // Drop the last section.
    SnapshotWriter writer;
    for (size_t i = 0; i + 1 < parsed.size(); ++i) {
      writer.AddSection(static_cast<SnapshotSectionType>(parsed[i].type), parsed[i].payload);
    }
    EXPECT_FALSE(DeserializeSnapshot(writer.Finish(), *world.registry).ok());
  }
}

// Forward compatibility: a CRC-intact section of a type this build does
// not know (written by a future version) is skipped by the loader, not
// treated as damage or a framing error.
TEST(SnapshotTest, UnknownSectionTypeIsSkippedOnLoad) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  std::string pristine = SerializeSnapshot(snapshot, *world.registry);
  auto baseline = DeserializeSnapshot(pristine, *world.registry);
  ASSERT_TRUE(baseline.ok());

  auto sections = ScanSnapshotSections(pristine);
  ASSERT_TRUE(sections.ok());
  const auto& parsed = sections.value();
  ASSERT_GE(parsed.size(), 4u);
  // Re-emit with a future-typed section spliced in after the meta section.
  SnapshotWriter writer;
  writer.AddSection(static_cast<SnapshotSectionType>(parsed[0].type), parsed[0].payload);
  writer.AddSection(static_cast<SnapshotSectionType>(9), "future-extension-payload");
  for (size_t i = 1; i < parsed.size(); ++i) {
    writer.AddSection(static_cast<SnapshotSectionType>(parsed[i].type), parsed[i].payload);
  }
  std::string extended = writer.Finish();

  auto restored = DeserializeSnapshot(extended, *world.registry);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Everything the loader understands is untouched by the skip.
  EXPECT_EQ(SerializeSnapshot(restored.value(), *world.registry),
            SerializeSnapshot(baseline.value(), *world.registry));
}

// doctor --repair keeps only CRC-intact sections, so a repaired file can be
// container-clean yet missing a whole table. Loading such a file must come
// back as a typed error naming the table — not a CHECK abort at the first
// analysis lookup.
TEST(SnapshotTest, RepairedSnapshotMissingATableFailsTyped) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  std::string bytes = SerializeSnapshot(snapshot, *world.registry);
  auto sections = ScanSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  // Corrupt one payload byte of the first table section; repair then drops
  // that section wholesale.
  const SnapshotSection* table = nullptr;
  for (const auto& section : sections.value()) {
    if (section.type == kSnapshotSectionTable) {
      table = &section;
      break;
    }
  }
  ASSERT_NE(table, nullptr);
  size_t victim = static_cast<size_t>(table->payload.data() - bytes.data());
  bytes[victim] ^= 0x20;
  SnapshotRepairResult repaired = RepairSnapshotBytes(bytes);
  ASSERT_TRUE(repaired.salvageable());
  ASSERT_EQ(repaired.dropped.size(), 1u);
  auto restored = DeserializeSnapshot(repaired.bytes, *world.registry);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("required table"), std::string::npos)
      << restored.status().message();
}

// The lazy-CRC contract of the zero-copy load: by default every payload
// CRC is verified (a flipped padding byte — which no decoder ever reads —
// must still fail the load), and only an explicit verify_payload_crcs=false
// opt-out defers table CRCs, in which case the analysis still comes out
// identical because padding bytes carry no data.
TEST(SnapshotTest, V2DefaultLoadVerifiesPayloadsLazyLoadDefersThem) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  std::string bytes = SerializeSnapshot(snapshot, *world.registry);

  auto sections = ScanSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  size_t victim = 0;
  for (const SnapshotSection& section : sections.value()) {
    if (section.type == kSnapshotSectionTable &&
        section.padded_payload.size() > section.payload.size()) {
      // Last padding byte of the section: inside the CRC domain, outside
      // every decoder's read set.
      victim = (section.padded_payload.data() - bytes.data()) +
               section.padded_payload.size() - 1;
      break;
    }
  }
  ASSERT_NE(victim, 0u) << "no padded table section in the fixture";
  bytes[victim] ^= 0x5A;

  std::string path = ::testing::TempDir() + "/snapshot_test_lazy_crc.lockdb";
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  auto strict = LoadSnapshot(path, *world.registry);
  EXPECT_FALSE(strict.ok()) << "default load must verify padded payload CRCs";

  SnapshotLoadOptions trusting;
  trusting.verify_payload_crcs = false;
  auto lazy = LoadSnapshot(path, *world.registry, trusting);
  ASSERT_TRUE(lazy.ok()) << lazy.status().message();
  ExpectSameRules(AnalyzeSnapshot(lazy.value()), AnalyzeSnapshot(snapshot));
  std::filesystem::remove(path);
}

// BuildAndSaveSnapshot overlaps the head-section disk write with
// observation extraction, but the bytes on disk must be exactly what the
// serial build-then-serialize path produces — at any job count.
TEST(SnapshotTest, BuildAndSaveSnapshotMatchesSerialBytesAtAnyJobCount) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  const std::string expected = SerializeSnapshot(snapshot, *world.registry);
  for (size_t jobs : {size_t{1}, size_t{2}, size_t{8}}) {
    PipelineOptions options;
    options.jobs = jobs;
    std::string path =
        ::testing::TempDir() + "/snapshot_test_build_save_j" + std::to_string(jobs) + ".lockdb";
    auto built = BuildAndSaveSnapshot(world.trace, *world.registry, options, path);
    ASSERT_TRUE(built.ok()) << built.status().message();
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << path;
    std::ostringstream actual;
    actual << in.rdbuf();
    EXPECT_EQ(actual.str(), expected) << "jobs=" << jobs << " diverged from the serial bytes";
    ExpectSameRules(AnalyzeSnapshot(built.value()), AnalyzeSnapshot(snapshot));
    std::filesystem::remove(path);
  }
}

TEST(SnapshotTest, SaveAndLoadFileRoundTrip) {
  TestWorld world = MakeWorld();
  AnalysisSnapshot snapshot = BuildSnapshot(world.trace, *world.registry);
  std::string path = ::testing::TempDir() + "/snapshot_test_roundtrip.lockdb";

  ASSERT_TRUE(SaveSnapshot(snapshot, *world.registry, path).ok());
  EXPECT_TRUE(IsSnapshotFile(path));
  auto loaded = LoadSnapshot(path, *world.registry);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectSameRules(AnalyzeSnapshot(loaded.value()), AnalyzeSnapshot(snapshot));
  std::filesystem::remove(path);
}

TEST(SnapshotTest, LoadRejectsMissingAndNonSnapshotFiles) {
  TestWorld world = MakeWorld();
  EXPECT_FALSE(LoadSnapshot("/nonexistent/path.lockdb", *world.registry).ok());
  std::string path = ::testing::TempDir() + "/snapshot_test_not_a_snapshot";
  std::ofstream(path) << "plain text";
  EXPECT_FALSE(IsSnapshotFile(path));
  EXPECT_FALSE(LoadSnapshot(path, *world.registry).ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace lockdoc
