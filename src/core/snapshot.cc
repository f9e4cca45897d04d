#include "src/core/snapshot.h"

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "src/db/schema.h"
#include "src/util/file_io.h"
#include "src/util/mmap_file.h"
#include "src/util/string_util.h"
#include "src/util/varint.h"

namespace lockdoc {
namespace {

// Stats structs are serialized as a count-prefixed varint list in member
// order; the count is pinned by the format version, so adding a field means
// bumping the snapshot format versions.
constexpr uint64_t ImportStats::*kImportStatsFields[] = {
    &ImportStats::events,
    &ImportStats::accesses_total,
    &ImportStats::accesses_kept,
    &ImportStats::accesses_filtered,
    &ImportStats::txns,
    &ImportStats::locked_txns,
    &ImportStats::lock_instances,
    &ImportStats::allocations,
    &ImportStats::dangling_locks_closed,
    &ImportStats::live_allocations_at_end,
    &ImportStats::realloc_overlaps,
    &ImportStats::unmatched_releases,
    &ImportStats::unresolved_lock_ops,
    &ImportStats::unknown_type_allocs,
};

constexpr uint64_t TraceStats::*kTraceStatsFields[] = {
    &TraceStats::total_events,
    &TraceStats::lock_ops,
    &TraceStats::lock_acquires,
    &TraceStats::lock_releases,
    &TraceStats::memory_accesses,
    &TraceStats::reads,
    &TraceStats::writes,
    &TraceStats::allocations,
    &TraceStats::deallocations,
    &TraceStats::static_lock_defs,
    &TraceStats::distinct_locks,
    &TraceStats::distinct_static_locks,
    &TraceStats::distinct_embedded_locks,
};

template <typename Stats, size_t N>
void PutStats(std::string& out, const Stats& stats, uint64_t Stats::*const (&fields)[N]) {
  PutVarint(out, N);
  for (auto field : fields) {
    PutVarint(out, stats.*field);
  }
}

template <typename Stats, size_t N>
bool GetStats(ByteCursor& in, Stats* stats, uint64_t Stats::*const (&fields)[N]) {
  uint64_t count = 0;
  if (!GetVarint(in, &count) || count != N) {
    return false;
  }
  for (auto field : fields) {
    if (!GetVarint(in, &(stats->*field))) {
      return false;
    }
  }
  return true;
}

std::string EncodeMetaSection(const AnalysisSnapshot& snapshot, size_t type_count) {
  std::string payload;
  PutVarint(payload, kSnapshotFormatVersionV2);
  PutStats(payload, snapshot.import_stats, kImportStatsFields);
  PutStats(payload, snapshot.trace_stats, kTraceStatsFields);
  PutVarint(payload, type_count);
  return payload;
}

Status DecodeMetaSection(std::string_view payload, const TypeRegistry& registry,
                         AnalysisSnapshot* snapshot) {
  ByteCursor in{payload.data(), payload.size(), 0};
  uint64_t version = 0;
  if (!GetVarint(in, &version)) {
    return Status::Error("snapshot meta: unreadable version");
  }
  if (version != kSnapshotFormatVersionV2) {
    return Status::Error(StrFormat("snapshot meta: format version %llu, this container reads %llu",
                                   static_cast<unsigned long long>(version),
                                   static_cast<unsigned long long>(kSnapshotFormatVersionV2)));
  }
  if (!GetStats(in, &snapshot->import_stats, kImportStatsFields)) {
    return Status::Error("snapshot meta: bad import stats");
  }
  if (!GetStats(in, &snapshot->trace_stats, kTraceStatsFields)) {
    return Status::Error("snapshot meta: bad trace stats");
  }
  uint64_t type_count = 0;
  if (!GetVarint(in, &type_count) || in.remaining() != 0) {
    return Status::Error("snapshot meta: bad registry shape");
  }
  if (type_count != registry.type_count()) {
    return Status::Error(
        StrFormat("snapshot meta: built against a registry with %llu types, this one has %zu",
                  static_cast<unsigned long long>(type_count), registry.type_count()));
  }
  return Status::Ok();
}

std::string EncodePoolSection(const LockClassPool& pool) {
  std::string payload;
  PutVarint(payload, pool.classes().size());
  for (const LockClass& cls : pool.classes()) {
    payload.push_back(static_cast<char>(cls.scope));
    PutLengthPrefixed(payload, cls.lock_name);
    PutLengthPrefixed(payload, cls.owner_type);
  }
  return payload;
}

constexpr uint64_t kMaxSnapshotString = 1ull << 20;

Status DecodePoolSection(std::string_view payload, LockClassPool* pool) {
  ByteCursor in{payload.data(), payload.size(), 0};
  uint64_t count = 0;
  if (!GetVarint(in, &count) || count > in.remaining()) {
    return Status::Error("snapshot pool: bad class count");
  }
  std::vector<LockClass> classes;
  classes.reserve(count);
  std::set<LockClass> distinct;
  for (uint64_t i = 0; i < count; ++i) {
    LockClass cls;
    uint8_t scope = 0;
    if (!in.Get(&scope) || scope > static_cast<uint8_t>(LockScope::kEmbeddedOther) ||
        !GetLengthPrefixed(in, &cls.lock_name, kMaxSnapshotString) ||
        !GetLengthPrefixed(in, &cls.owner_type, kMaxSnapshotString)) {
      return Status::Error(StrFormat("snapshot pool: bad class %llu",
                                     static_cast<unsigned long long>(i)));
    }
    cls.scope = static_cast<LockScope>(scope);
    if (!distinct.insert(cls).second) {
      return Status::Error("snapshot pool: duplicate class");
    }
    classes.push_back(std::move(cls));
  }
  if (in.remaining() != 0) {
    return Status::Error("snapshot pool: trailing bytes");
  }
  pool->Reset(std::move(classes));
  return Status::Ok();
}

// Seqs section: columnar fixed-width arrays —
//   u64 seq_count | u64 total_ids | u32 len[seq_count] | u32 ids[total_ids]
// Decoding is a bounds-checked linear sweep with no varint branches.
std::string EncodeSeqsSectionV2(const ObservationStore& store) {
  std::string payload;
  uint64_t total_ids = 0;
  for (uint32_t i = 0; i < store.distinct_seqs(); ++i) {
    total_ids += store.id_seq(i).size();
  }
  AppendUint64LE(payload, store.distinct_seqs());
  AppendUint64LE(payload, total_ids);
  for (uint32_t i = 0; i < store.distinct_seqs(); ++i) {
    AppendUint32LE(payload, static_cast<uint32_t>(store.id_seq(i).size()));
  }
  for (uint32_t i = 0; i < store.distinct_seqs(); ++i) {
    for (LockId id : store.id_seq(i)) {
      AppendUint32LE(payload, id);
    }
  }
  return payload;
}

Status DecodeSeqsSectionV2(std::string_view payload, size_t pool_size,
                           std::vector<IdSeq>* id_seqs) {
  if (payload.size() < 16) {
    return Status::Error("snapshot seqs: bad sequence count");
  }
  uint64_t count = LoadUint64LE(payload.data());
  uint64_t total_ids = LoadUint64LE(payload.data() + 8);
  // Exact size up front: corrupt counts cannot drive allocations.
  if (count > payload.size() || total_ids > payload.size() ||
      payload.size() != 16 + 4 * count + 4 * total_ids) {
    return Status::Error("snapshot seqs: bad sequence count");
  }
  const char* lens = payload.data() + 16;
  const char* ids = lens + 4 * count;
  id_seqs->reserve(count);
  uint64_t consumed = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t length = LoadUint32LE(lens + 4 * i);
    if (length > total_ids - consumed) {
      return Status::Error("snapshot seqs: bad sequence length");
    }
    IdSeq seq;
    seq.reserve(length);
    for (uint32_t j = 0; j < length; ++j) {
      uint32_t id = LoadUint32LE(ids + 4 * (consumed + j));
      if (id >= pool_size) {
        return Status::Error("snapshot seqs: lock id out of range");
      }
      seq.push_back(id);
    }
    consumed += length;
    id_seqs->push_back(std::move(seq));
  }
  if (consumed != total_ids) {
    return Status::Error("snapshot seqs: trailing bytes");
  }
  return Status::Ok();
}

// Groups section: one struct-of-arrays block (all little-endian) —
//   u64 key_count K | u64 group_count G | u64 seq_total S
//   u32 type[K] | u32 subclass[K] | u32 member[K] | u32 groups_per_key[K]
//   u32 lockseq[G] | u32 n_reads[G] | u32 n_writes[G]
//   u64 txn[G] | u64 alloc[G] | u32 seqs_per_group[G]
//   u64 seqs[S]
std::string EncodeGroupsSectionV2(const ObservationStore& store) {
  uint64_t key_count = store.groups().size();
  uint64_t group_count = 0;
  uint64_t seq_total = 0;
  for (const auto& [key, groups] : store.groups()) {
    group_count += groups.size();
    for (const ObservationGroup& group : groups) {
      seq_total += group.seqs.size();
    }
  }
  std::string payload;
  payload.reserve(24 + 16 * key_count + 32 * group_count + 8 * seq_total);
  AppendUint64LE(payload, key_count);
  AppendUint64LE(payload, group_count);
  AppendUint64LE(payload, seq_total);
  auto per_key = [&](auto&& fn) {
    for (const auto& [key, groups] : store.groups()) {
      fn(key, groups);
    }
  };
  per_key([&](const MemberObsKey& key, const auto&) { AppendUint32LE(payload, key.type); });
  per_key(
      [&](const MemberObsKey& key, const auto&) { AppendUint32LE(payload, key.subclass); });
  per_key([&](const MemberObsKey& key, const auto&) { AppendUint32LE(payload, key.member); });
  per_key([&](const MemberObsKey&, const auto& groups) {
    AppendUint32LE(payload, static_cast<uint32_t>(groups.size()));
  });
  auto per_group = [&](auto&& fn) {
    for (const auto& [key, groups] : store.groups()) {
      for (const ObservationGroup& group : groups) {
        fn(group);
      }
    }
  };
  per_group([&](const ObservationGroup& g) { AppendUint32LE(payload, g.lockseq_id); });
  per_group([&](const ObservationGroup& g) { AppendUint32LE(payload, g.n_reads); });
  per_group([&](const ObservationGroup& g) { AppendUint32LE(payload, g.n_writes); });
  per_group([&](const ObservationGroup& g) { AppendUint64LE(payload, g.txn_id); });
  per_group([&](const ObservationGroup& g) { AppendUint64LE(payload, g.alloc_id); });
  per_group([&](const ObservationGroup& g) {
    AppendUint32LE(payload, static_cast<uint32_t>(g.seqs.size()));
  });
  per_group([&](const ObservationGroup& g) {
    for (uint64_t seq : g.seqs) {
      AppendUint64LE(payload, seq);
    }
  });
  return payload;
}

Status DecodeGroupsSectionV2(std::string_view payload, const TypeRegistry& registry,
                             size_t seq_count,
                             std::map<MemberObsKey, std::vector<ObservationGroup>>* groups) {
  if (payload.size() < 24) {
    return Status::Error("snapshot groups: bad key count");
  }
  uint64_t key_count = LoadUint64LE(payload.data());
  uint64_t group_count = LoadUint64LE(payload.data() + 8);
  uint64_t seq_total = LoadUint64LE(payload.data() + 16);
  if (key_count > payload.size() || group_count > payload.size() ||
      seq_total > payload.size() ||
      payload.size() != 24 + 16 * key_count + 32 * group_count + 8 * seq_total) {
    return Status::Error("snapshot groups: bad key count");
  }
  const char* base = payload.data() + 24;
  const char* key_type = base;
  const char* key_subclass = key_type + 4 * key_count;
  const char* key_member = key_subclass + 4 * key_count;
  const char* groups_per_key = key_member + 4 * key_count;
  const char* lockseq = groups_per_key + 4 * key_count;
  const char* n_reads = lockseq + 4 * group_count;
  const char* n_writes = n_reads + 4 * group_count;
  const char* txn = n_writes + 4 * group_count;
  const char* alloc = txn + 8 * group_count;
  const char* seqs_per_group = alloc + 8 * group_count;
  const char* seqs = seqs_per_group + 4 * group_count;

  MemberObsKey previous;
  uint64_t group_cursor = 0;
  uint64_t seq_cursor = 0;
  for (uint64_t i = 0; i < key_count; ++i) {
    MemberObsKey key;
    key.type = LoadUint32LE(key_type + 4 * i);
    key.subclass = LoadUint32LE(key_subclass + 4 * i);
    key.member = LoadUint32LE(key_member + 4 * i);
    if (key.type >= registry.type_count() ||
        key.member >= registry.layout(key.type).member_count()) {
      return Status::Error("snapshot groups: key out of registry range");
    }
    if (i > 0 && !(previous < key)) {
      return Status::Error("snapshot groups: keys out of order");
    }
    previous = key;
    uint32_t member_group_count = LoadUint32LE(groups_per_key + 4 * i);
    if (member_group_count > group_count - group_cursor) {
      return Status::Error("snapshot groups: bad group count");
    }
    std::vector<ObservationGroup> member_groups;
    member_groups.reserve(member_group_count);
    for (uint32_t g = 0; g < member_group_count; ++g) {
      uint64_t row = group_cursor + g;
      ObservationGroup group;
      group.lockseq_id = LoadUint32LE(lockseq + 4 * row);
      if (group.lockseq_id >= seq_count) {
        return Status::Error("snapshot groups: bad group");
      }
      group.n_reads = LoadUint32LE(n_reads + 4 * row);
      group.n_writes = LoadUint32LE(n_writes + 4 * row);
      group.txn_id = LoadUint64LE(txn + 8 * row);
      group.alloc_id = LoadUint64LE(alloc + 8 * row);
      uint32_t seq_len = LoadUint32LE(seqs_per_group + 4 * row);
      if (seq_len > seq_total - seq_cursor) {
        return Status::Error("snapshot groups: bad group");
      }
      group.seqs.resize(seq_len);
      // The seq ids are contiguous LE u64s and the host is little-endian
      // (static_assert in src/db/snapshot.cc), so the whole span copies
      // flat — this loop dominates the groups decode on big snapshots.
      std::memcpy(group.seqs.data(), seqs + 8 * seq_cursor, 8 * size_t{seq_len});
      seq_cursor += seq_len;
      member_groups.push_back(std::move(group));
    }
    group_cursor += member_group_count;
    groups->emplace(key, std::move(member_groups));
  }
  if (group_cursor != group_count || seq_cursor != seq_total) {
    return Status::Error("snapshot groups: trailing bytes");
  }
  return Status::Ok();
}

// Owned aligned backing for in-memory deserialization: std::string data
// has no alignment guarantee, so the bytes are copied once into a
// uint64-aligned buffer the views can point into.
struct OwnedBacking : SnapshotBacking {
  std::unique_ptr<uint64_t[]> buffer;
};

// File-mapped backing for the zero-copy LoadSnapshot path.
struct MappedBacking : SnapshotBacking {
  MappedFile file;
};

// The fixed section order both writers emit (and DeserializeImpl
// enforces): meta, strings, one table per database table in name order,
// then the kObservationSections that encode the extracted observations —
// pool, seqs, groups. Encoders read `snapshot` when called, so the head can
// be encoded while the observations are still being extracted.
struct SectionSpec {
  SnapshotSectionType type;
  std::function<std::string()> encode;
};
constexpr size_t kObservationSections = 3;

std::vector<SectionSpec> SectionOrder(const AnalysisSnapshot& snapshot,
                                      const TypeRegistry& registry) {
  std::vector<SectionSpec> order;
  order.push_back({kSnapshotSectionMeta, [&snapshot, type_count = registry.type_count()] {
                     return EncodeMetaSection(snapshot, type_count);
                   }});
  order.push_back(
      {kSnapshotSectionStrings, [&snapshot] { return EncodeStringsSection(snapshot.db.strings()); }});
  for (const std::string& name : snapshot.db.TableNames()) {
    order.push_back({kSnapshotSectionTable, [&snapshot, name] {
                       return EncodeTableSectionV2(snapshot.db.table(name));
                     }});
  }
  order.push_back({kSnapshotSectionPool,
                   [&snapshot] { return EncodePoolSection(snapshot.observations.pool()); }});
  order.push_back(
      {kSnapshotSectionSeqs, [&snapshot] { return EncodeSeqsSectionV2(snapshot.observations); }});
  order.push_back({kSnapshotSectionGroups,
                   [&snapshot] { return EncodeGroupsSectionV2(snapshot.observations); }});
  return order;
}

// Decodes `bytes`, whose numeric table columns are attached as views into
// `backing` (which must hold exactly these bytes).
Result<AnalysisSnapshot> DeserializeImpl(std::string_view bytes, const TypeRegistry& registry,
                                         const SnapshotLoadOptions& options,
                                         std::shared_ptr<const SnapshotBacking> backing) {
  Result<std::vector<SnapshotSection>> scan =
      ScanSnapshotSections(bytes, options.verify_payload_crcs ? SnapshotScanMode::kVerifyAll
                                                              : SnapshotScanMode::kVerifyHeaders);
  if (!scan.ok()) {
    return scan.status();
  }
  // Skip section types this reader does not know about: a future writer may
  // append new sections, and every section frame is self-delimiting with its
  // own CRC, so an old reader can load everything it understands and ignore
  // the rest (doctor reports them as "unrecognized (skipped)").
  std::vector<SnapshotSection> sections;
  sections.reserve(scan.value().size());
  for (const SnapshotSection& section : scan.value()) {
    if (section.type >= kSnapshotSectionMeta && section.type <= kSnapshotSectionGroups) {
      sections.push_back(section);
    }
  }

  // Enforce the fixed section order: meta, strings, table*, pool, seqs,
  // groups.
  if (sections.size() < 5 || sections.front().type != kSnapshotSectionMeta) {
    return Status::Error("snapshot: missing meta section");
  }
  AnalysisSnapshot snapshot;
  Status status = DecodeMetaSection(sections[0].payload, registry, &snapshot);
  if (!status.ok()) {
    return status;
  }
  if (sections[1].type != kSnapshotSectionStrings) {
    return Status::Error("snapshot: missing strings section");
  }
  status = DecodeStringsSection(sections[1].payload, &snapshot.db.mutable_strings());
  if (!status.ok()) {
    return status;
  }
  size_t index = 2;
  while (index < sections.size() && sections[index].type == kSnapshotSectionTable) {
    status = DecodeTableSectionV2(sections[index].payload, /*zero_copy=*/true, &snapshot.db);
    if (!status.ok()) {
      return status;
    }
    ++index;
  }
  // A structurally clean container can still be semantically incomplete —
  // doctor --repair drops damaged sections wholesale. Catch a missing table
  // here rather than CHECK-failing at the first analysis lookup.
  for (const char* name : LockDocSchema::kAllTables) {
    if (!snapshot.db.HasTable(name)) {
      return Status::Error(
          StrFormat("snapshot: required table '%s' missing (truncated or repaired file?)", name));
    }
  }
  if (sections.size() - index != kObservationSections ||
      sections[index].type != kSnapshotSectionPool ||
      sections[index + 1].type != kSnapshotSectionSeqs ||
      sections[index + 2].type != kSnapshotSectionGroups) {
    return Status::Error("snapshot: sections out of order");
  }
  LockClassPool pool;
  status = DecodePoolSection(sections[index].payload, &pool);
  if (!status.ok()) {
    return status;
  }
  std::vector<IdSeq> id_seqs;
  status = DecodeSeqsSectionV2(sections[index + 1].payload, pool.size(), &id_seqs);
  if (!status.ok()) {
    return status;
  }
  std::map<MemberObsKey, std::vector<ObservationGroup>> groups;
  status = DecodeGroupsSectionV2(sections[index + 2].payload, registry, id_seqs.size(), &groups);
  if (!status.ok()) {
    return status;
  }
  snapshot.observations.ResetForSnapshot(std::move(pool), std::move(id_seqs),
                                         std::move(groups));
  snapshot.backing = std::move(backing);
  return snapshot;
}

}  // namespace

std::string SerializeSnapshot(const AnalysisSnapshot& snapshot, const TypeRegistry& registry,
                              const SnapshotWriteOptions& options) {
  const std::vector<SectionSpec> order = SectionOrder(snapshot, registry);
  // Section payloads are independent, so they encode in parallel; the
  // container assembly below stays serial and deterministic.
  std::vector<std::string> payloads(order.size());
  if (options.pool != nullptr) {
    options.pool->ParallelFor(order.size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        payloads[i] = order[i].encode();
      }
    });
  } else {
    for (size_t i = 0; i < order.size(); ++i) {
      payloads[i] = order[i].encode();
    }
  }
  SnapshotWriter writer;
  writer.set_crc_pool(options.pool);
  size_t framed = 0;
  for (const std::string& payload : payloads) {
    framed += kSnapshotV2FrameHeaderSize + PaddedPayloadSize(payload.size());
  }
  writer.Reserve(framed + kSnapshotV2FrameHeaderSize + sizeof(uint64_t));  // + end section.
  for (size_t i = 0; i < order.size(); ++i) {
    writer.AddSection(order[i].type, payloads[i]);
  }
  return writer.Finish();
}

Result<std::string> SerializeSnapshotBytes(const AnalysisSnapshot& snapshot,
                                           const TypeRegistry& registry,
                                           const SnapshotWriteOptions& options) {
  return SerializeSnapshot(snapshot, registry, options);
}

Result<AnalysisSnapshot> DeserializeSnapshot(std::string_view bytes,
                                             const TypeRegistry& registry,
                                             const SnapshotLoadOptions& options) {
  // Numeric columns view into the container bytes; copy them once into an
  // aligned owned buffer the snapshot keeps alive (a caller's std::string
  // has no alignment guarantee and no pinned lifetime).
  auto backing = std::make_shared<OwnedBacking>();
  backing->buffer = std::make_unique<uint64_t[]>((bytes.size() + 7) / 8);
  std::memcpy(backing->buffer.get(), bytes.data(), bytes.size());
  backing->bytes =
      std::string_view(reinterpret_cast<const char*>(backing->buffer.get()), bytes.size());
  std::string_view view = backing->bytes;
  return DeserializeImpl(view, registry, options, std::move(backing));
}

Result<uint64_t> PeekSnapshotTypeCount(const std::string& path) {
  // Mapped, so only the pages the header scan touches are read.
  Result<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) {
    return mapped.status();
  }
  return PeekSnapshotTypeCountFromBytes(mapped.value().bytes());
}

Result<uint64_t> PeekSnapshotTypeCountFromBytes(std::string_view bytes) {
  Result<std::vector<SnapshotSection>> scan =
      ScanSnapshotSections(bytes, SnapshotScanMode::kVerifyHeaders);
  if (!scan.ok()) {
    return scan.status();
  }
  if (scan.value().empty() || scan.value().front().type != kSnapshotSectionMeta) {
    return Status::Error("snapshot: missing meta section");
  }
  // Parse the meta payload structurally (version, two stats blocks, type
  // count); the version itself is not checked here — the subsequent
  // LoadSnapshot does that with a proper typed error.
  std::string_view payload = scan.value().front().payload;
  ByteCursor in{payload.data(), payload.size(), 0};
  uint64_t version = 0;
  AnalysisSnapshot scratch;
  uint64_t type_count = 0;
  if (!GetVarint(in, &version) || !GetStats(in, &scratch.import_stats, kImportStatsFields) ||
      !GetStats(in, &scratch.trace_stats, kTraceStatsFields) || !GetVarint(in, &type_count)) {
    return Status::Error("snapshot meta: bad registry shape");
  }
  return type_count;
}

Result<AnalysisSnapshot> BuildAndSaveSnapshot(const Trace& trace, const TypeRegistry& registry,
                                              const PipelineOptions& options,
                                              const std::string& path,
                                              PipelineTimings* timings) {
  using Clock = std::chrono::steady_clock;
  auto seconds = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };

  ThreadPool pool(options.jobs);
  AnalysisSnapshot snapshot = ImportDatabase(trace, registry, options, &pool, timings);
  auto t1 = Clock::now();

  AtomicFileWriter file;
  Status io = file.Open(path);
  if (!io.ok()) {
    return io;
  }

  SnapshotWriter writer;
  size_t flushed = 0;
  auto flush = [&]() -> Status {
    std::string_view pending = writer.pending();
    Status status = file.Append(pending.substr(flushed));
    flushed = pending.size();
    file.FlushHint();
    return status;
  };

  // Everything up to the observation sections is fully determined by the
  // import, so the head of the file — meta, strings, and the table sections
  // that dominate its size — can encode and stream to disk while extraction
  // runs. The head writer only *reads* the database (encode + CRC); the
  // extraction threads also only read it, so the two proceed without
  // synchronization beyond the join below.
  const std::vector<SectionSpec> order = SectionOrder(snapshot, registry);
  const size_t head = order.size() - kObservationSections;
  Status head_io;
  auto write_head = [&]() {
    for (size_t i = 0; i < head && head_io.ok(); ++i) {
      writer.AddSection(order[i].type, order[i].encode());
      head_io = flush();
    }
  };

  // With one job the contract is a strictly serial pipeline; the overlap is
  // only taken when the caller asked for parallelism.
  const bool overlap = pool.thread_count() > 1;
  std::thread head_thread;
  if (overlap) {
    head_thread = std::thread(write_head);
  }

  snapshot.observations = ExtractObservations(snapshot.db, registry, &pool);
  auto t2 = Clock::now();
  if (timings != nullptr) {
    timings->Add("observation extraction", seconds(t1, t2),
                 snapshot.import_stats.accesses_kept);
  }

  if (overlap) {
    head_thread.join();
  } else {
    write_head();
  }
  if (!head_io.ok()) {
    return head_io;  // Append already removed the temp file.
  }

  // Tail sections depend on the extracted observations. The pool is idle
  // again, so the payload CRCs may use it.
  writer.set_crc_pool(&pool);
  for (size_t i = head; i < order.size(); ++i) {
    writer.AddSection(order[i].type, order[i].encode());
  }
  const std::string bytes = writer.Finish();
  io = file.Append(std::string_view(bytes).substr(flushed));
  if (!io.ok()) {
    return io;
  }
  io = file.Commit();
  if (!io.ok()) {
    return io;
  }
  auto t3 = Clock::now();
  if (timings != nullptr) {
    // Only the tail that could not hide behind extraction; the overlapped
    // head writing is already accounted inside the extraction wall time.
    timings->Add("snapshot save", seconds(t2, t3), bytes.size());
  }
  return snapshot;
}

Status SaveSnapshot(const AnalysisSnapshot& snapshot, const TypeRegistry& registry,
                    const std::string& path, const SnapshotWriteOptions& options) {
  // Atomic (temp + fsync + rename): a crash mid-save leaves the previous
  // snapshot intact instead of a half-written .lockdb the checksums would
  // then reject.
  return WriteFileAtomic(path, SerializeSnapshot(snapshot, registry, options));
}

Result<AnalysisSnapshot> LoadSnapshot(const std::string& path, const TypeRegistry& registry,
                                      const SnapshotLoadOptions& options) {
  Result<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) {
    return mapped.status();
  }
  auto backing = std::make_shared<MappedBacking>();
  backing->file = std::move(mapped).value();
  backing->bytes = backing->file.bytes();
  if (options.verify_payload_crcs) {
    // The CRC sweep is about to read every page front to back; batch the
    // faults. The trusted load skips this so untouched pages never fault.
    backing->file.AdviseSequentialScan();
  }
  std::string_view bytes = backing->bytes;
  return DeserializeImpl(bytes, registry, options, std::move(backing));
}

}  // namespace lockdoc
