// Fault-injection suite: several hundred deterministic corruptions of a
// realistic serialized trace, proving three properties of the ingestion
// path end to end:
//
//   1. No crash and no LOCKDOC_CHECK abort, ever — in the reader or in the
//      downstream pipeline fed with salvaged traces.
//   2. No silent mis-derivation: a strict read of damaged bytes either
//      fails or yields a trace identical to the original; a salvage read
//      either fails cleanly or flags the damage in its report.
//   3. Damage is survivable: truncating the tail still derives rules for
//      everything observed in the surviving prefix.
//
// Two further tests pin the reader's exact behavior on every v2 case: the
// strict read is independent of the thread pool, and every strict error,
// salvage report and salvaged trace matches testdata/corruption_reads.golden.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/trace/corruptor.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_stats.h"
#include "src/util/crc32.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"
#include "src/util/varint.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

struct Fixture {
  SimulationResult sim;
  std::string v1_bytes;
  std::string v2_bytes;
  TraceStats baseline;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture;
    MixOptions mix;
    mix.ops = 150;
    mix.seed = 11;
    f->sim = SimulateKernelRun(mix, FaultPlan::Clean());
    std::ostringstream v1;
    WriteTrace(f->sim.trace, v1, TraceFormat::kV1);
    f->v1_bytes = std::move(v1).str();
    std::ostringstream v2;
    WriteTrace(f->sim.trace, v2, TraceFormat::kV2);
    f->v2_bytes = std::move(v2).str();
    f->baseline = ComputeTraceStats(f->sim.trace);
    return f;
  }();
  return *fixture;
}

bool StatsEqual(const TraceStats& a, const TraceStats& b) {
  return a.total_events == b.total_events && a.lock_ops == b.lock_ops &&
         a.memory_accesses == b.memory_accesses && a.allocations == b.allocations &&
         a.deallocations == b.deallocations && a.static_lock_defs == b.static_lock_defs &&
         a.distinct_locks == b.distinct_locks;
}

// One corruption case. `checksummed` is true for v2 input: only the framed
// format can *guarantee* that silent value mutations are detected — v1 has
// no redundancy, so a bit flip inside an event payload can parse "validly"
// into different field values (which is precisely the motivation for v2).
// The no-crash / no-abort / consistent-report properties hold for both.
void RunCase(const std::string& clean_bytes, CorruptionKind kind, uint64_t seed,
             bool checksummed) {
  SCOPED_TRACE(std::string(CorruptionKindName(kind)) + " seed " + std::to_string(seed));
  const Fixture& fixture = GetFixture();
  std::string corrupted = CorruptTraceBytes(clean_bytes, kind, seed);
  ASSERT_NE(corrupted, clean_bytes);

  // Strict read: must fail, or (v2) reconstruct the original exactly.
  {
    std::istringstream in(corrupted);
    auto strict = ReadTrace(in);
    if (strict.ok() && checksummed) {
      EXPECT_TRUE(StatsEqual(ComputeTraceStats(strict.value()), fixture.baseline))
          << "strict read of corrupted bytes silently produced a different trace";
    }
  }

  // Salvage read: a clean failure is acceptable; success must (v2) either
  // flag the damage in the report or have recovered the identical trace.
  std::istringstream in(corrupted);
  TraceReadOptions options;
  options.salvage = true;
  TraceReadReport report;
  auto salvaged = ReadTrace(in, options, &report);
  if (!salvaged.ok()) {
    return;
  }
  TraceStats stats = ComputeTraceStats(salvaged.value());
  if (checksummed) {
    EXPECT_TRUE(!report.clean() || StatsEqual(stats, fixture.baseline))
        << "salvage reported a clean read but the trace differs";
  }
  EXPECT_EQ(report.events_salvaged, salvaged.value().size());
  EXPECT_LE(stats.total_events, fixture.baseline.total_events + report.frames_duplicate *
                                                                    kTraceEventsPerFrame);

  // The salvaged trace must survive the full pipeline: import, observation
  // extraction, rule derivation. Any LOCKDOC_CHECK abort kills the test
  // binary, so reaching the assertions below proves no abort happened.
  PipelineResult result = RunPipeline(salvaged.value(), *fixture.sim.registry);
  for (const DerivationResult& rule : result.rules) {
    EXPECT_GT(rule.total, 0u);
    EXPECT_TRUE(rule.winner.has_value());
  }
}

class CorruptionSuite : public ::testing::TestWithParam<CorruptionKind> {};

TEST_P(CorruptionSuite, V2FortySeedsEach) {
  const Fixture& fixture = GetFixture();
  for (uint64_t seed = 0; seed < 40; ++seed) {
    RunCase(fixture.v2_bytes, GetParam(), seed, /*checksummed=*/true);
  }
}

TEST_P(CorruptionSuite, V1TenSeedsEach) {
  const Fixture& fixture = GetFixture();
  for (uint64_t seed = 0; seed < 10; ++seed) {
    RunCase(fixture.v1_bytes, GetParam(), seed, /*checksummed=*/false);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CorruptionSuite, ::testing::ValuesIn(kAllCorruptionKinds),
                         [](const ::testing::TestParamInfo<CorruptionKind>& info) {
                           std::string name = CorruptionKindName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// Recomputes the CRC of every frame that still parses, so payload damage
// reaches the table and event decoders instead of stopping at the CRC check.
std::string Rechecksum(std::string bytes) {
  const size_t kHeader = kTraceFrameHeaderSize;
  size_t pos = 8;  // Past the magic.
  while (pos + kHeader + kTraceFrameTrailerSize <= bytes.size() &&
         bytes.compare(pos, sizeof(kTraceFrameMarker),
                       reinterpret_cast<const char*>(kTraceFrameMarker),
                       sizeof(kTraceFrameMarker)) == 0) {
    const uint64_t length = LoadUint32LE(bytes.data() + pos + 9);
    if (pos + kHeader + length + kTraceFrameTrailerSize > bytes.size()) {
      break;
    }
    const uint32_t crc = Crc32(bytes.data() + pos + sizeof(kTraceFrameMarker),
                               kHeader - sizeof(kTraceFrameMarker) + length);
    for (size_t i = 0; i < 4; ++i) {
      bytes[pos + kHeader + length + i] = static_cast<char>(crc >> (8 * i));
    }
    pos += kHeader + length + kTraceFrameTrailerSize;
  }
  return bytes;
}

// Calls fn(label, bytes) for every v2 case of the suite (6 kinds x 40
// seeds, labelled "<kind> <seed>"), then for bit flips and zero runs with
// their frame CRCs repaired ("<kind>+crc <seed>") so the damage lands in the
// decoders.
void ForEachV2Case(const std::function<void(const std::string&, const std::string&)>& fn) {
  const std::string& clean = GetFixture().v2_bytes;
  for (CorruptionKind kind : kAllCorruptionKinds) {
    for (uint64_t seed = 0; seed < 40; ++seed) {
      fn(std::string(CorruptionKindName(kind)) + " " + std::to_string(seed),
         CorruptTraceBytes(clean, kind, seed));
    }
  }
  for (CorruptionKind kind : {CorruptionKind::kBitFlip, CorruptionKind::kZeroRun}) {
    for (uint64_t seed = 0; seed < 40; ++seed) {
      fn(std::string(CorruptionKindName(kind)) + "+crc " + std::to_string(seed),
         Rechecksum(CorruptTraceBytes(clean, kind, seed)));
    }
  }
}

// The strict v2 read fans CRCs and event frames out over a pool; its result
// (the error text, or the trace) must not depend on whether a pool is given.
TEST(CorruptionReads, StrictReadIsPoolIndependent) {
  ThreadPool pool(4);
  TraceReadOptions pooled_options;
  pooled_options.pool = &pool;
  ForEachV2Case([&](const std::string& label, const std::string& bytes) {
    SCOPED_TRACE(label);
    auto serial = ReadTraceFromBytes(bytes, {}, nullptr);
    auto pooled = ReadTraceFromBytes(bytes, pooled_options, nullptr);
    ASSERT_EQ(serial.ok(), pooled.ok());
    if (!serial.ok()) {
      EXPECT_EQ(serial.status().ToString(), pooled.status().ToString());
      return;
    }
    std::ostringstream a;
    std::ostringstream b;
    WriteTrace(serial.value(), a);
    WriteTrace(pooled.value(), b);
    EXPECT_EQ(a.str(), b.str());
  });
}

uint64_t Fnv64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  return hash;
}

std::string DescribeRead(const Result<Trace>& read, const TraceReadReport& r) {
  if (!read.ok()) {
    return "error \"" + read.status().message() + "\"";
  }
  std::ostringstream bytes;
  WriteTrace(read.value(), bytes);
  return StrFormat(
      "ok fnv=%016llx v%u size=%llu ok=%llu crc=%llu len=%llu dup=%llu skipped=%llu "
      "salvaged=%llu dropped=%llu bad=%llu cleared=%llu strings_lost=%d stacks_lost=%d "
      "truncated=%d at=%llu",
      static_cast<unsigned long long>(Fnv64(bytes.str())), r.format_version,
      static_cast<unsigned long long>(r.file_size), static_cast<unsigned long long>(r.frames_ok),
      static_cast<unsigned long long>(r.frames_bad_crc),
      static_cast<unsigned long long>(r.frames_bad_length),
      static_cast<unsigned long long>(r.frames_duplicate),
      static_cast<unsigned long long>(r.bytes_skipped),
      static_cast<unsigned long long>(r.events_salvaged),
      static_cast<unsigned long long>(r.events_dropped),
      static_cast<unsigned long long>(r.bad_event_records),
      static_cast<unsigned long long>(r.stack_refs_cleared), r.string_table_lost ? 1 : 0,
      r.stack_table_lost ? 1 : 0, r.truncated ? 1 : 0,
      static_cast<unsigned long long>(r.truncation_offset));
}

// Characterization golden: one line per v2 case with the strict outcome and
// the salvage outcome (report fields plus an FNV-64 of the salvaged trace
// re-encoded). Any change to what the reader accepts, reports or recovers
// shows up here. Regenerate, only for an intended behavior change, by
// running this binary with LOCKDOC_REGEN_GOLDEN=1.
TEST(CorruptionReads, MatchGolden) {
  std::string actual;
  ForEachV2Case([&](const std::string& label, const std::string& bytes) {
    TraceReadReport strict_report;
    auto strict = ReadTraceFromBytes(bytes, {}, &strict_report);
    TraceReadOptions salvage_options;
    salvage_options.salvage = true;
    TraceReadReport salvage_report;
    auto salvaged = ReadTraceFromBytes(bytes, salvage_options, &salvage_report);
    actual += label + " | strict " + DescribeRead(strict, strict_report) + " | salvage " +
              DescribeRead(salvaged, salvage_report) + "\n";
  });

  const std::string path = std::string(LOCKDOC_TESTDATA_DIR) + "/corruption_reads.golden";
  if (std::getenv("LOCKDOC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str());
}

// Acceptance scenario: losing the trailing 10% of the archive must still
// yield derived rules (each with a winner) for the members observed in the
// surviving prefix.
TEST(CorruptionSuite, TruncatedTailStillDerivesRules) {
  const Fixture& fixture = GetFixture();
  std::string cut = fixture.v2_bytes.substr(0, fixture.v2_bytes.size() * 9 / 10);

  std::istringstream in(cut);
  TraceReadOptions options;
  options.salvage = true;
  TraceReadReport report;
  auto salvaged = ReadTrace(in, options, &report);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  EXPECT_TRUE(report.truncated);
  EXPECT_GT(report.events_salvaged, fixture.baseline.total_events / 2);

  PipelineResult result = RunPipeline(salvaged.value(), *fixture.sim.registry);
  EXPECT_FALSE(result.rules.empty());
  for (const DerivationResult& rule : result.rules) {
    EXPECT_GT(rule.total, 0u);
    ASSERT_TRUE(rule.winner.has_value());
  }
}

// Dropping a whole middle frame loses those events but keeps everything
// around it; the reader must account for the loss exactly.
TEST(CorruptionSuite, DroppedEventFrameIsCounted) {
  const Fixture& fixture = GetFixture();
  for (uint64_t seed = 0; seed < 10; ++seed) {
    std::string corrupted =
        CorruptTraceBytes(fixture.v2_bytes, CorruptionKind::kFrameDrop, seed);
    std::istringstream in(corrupted);
    TraceReadOptions options;
    options.salvage = true;
    TraceReadReport report;
    auto salvaged = ReadTrace(in, options, &report);
    if (!salvaged.ok()) {
      continue;  // Dropped the string table; unrecoverable is acceptable.
    }
    EXPECT_EQ(report.events_salvaged + report.events_dropped, fixture.baseline.total_events)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace lockdoc
