// Serialization of a full AnalysisSnapshot to and from the .lockdb
// container (src/db/snapshot.h): the import-once / analyze-many boundary.
// `lockdoc import` writes one; every analysis command loads one instead of
// re-importing the trace.
//
// Section order is fixed — meta, strings, one table section per database
// table in name order, pool, seqs, groups, end — and every payload is
// emitted from deterministically-ordered containers, so serializing the
// same snapshot always yields byte-identical files regardless of the thread
// count that built it. Payload encoding per section is parallelized over
// the optional thread pool; the concatenation stays serial, preserving the
// byte-identity contract.
//
// The container is LOCKDB02 (docs/lockdb-format.md): numeric table columns
// and the observation id-sequences/groups are fixed-width little-endian
// arrays, 8-byte aligned, so LoadSnapshot can mmap the file and attach
// table columns as in-place views (zero-copy) instead of decoding them.
// Every reader fails a retired LOCKDB01 file with one typed error that
// says to re-import it from its trace (CheckSnapshotMagic).
#ifndef SRC_CORE_SNAPSHOT_H_
#define SRC_CORE_SNAPSHOT_H_

#include <string>
#include <string_view>

#include "src/core/pipeline.h"
#include "src/db/snapshot.h"
#include "src/model/type_registry.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace lockdoc {

struct SnapshotWriteOptions {
  // When set, section payloads are encoded in parallel (output bytes are
  // identical either way).
  ThreadPool* pool = nullptr;
};

struct SnapshotLoadOptions {
  // Verify every payload CRC during the load: a straight CRC32 sweep over
  // the mapped bytes, and the default because every shipped consumer (CLI
  // analysis, serve, doctor) promises never to compute on corrupt bytes.
  // Set to false only when the file is trusted (e.g. written moments ago by
  // the same process, or benchmarking the pure zero-copy path): the load
  // then defers table payload CRCs entirely and attaches column views
  // unchecked.
  bool verify_payload_crcs = true;
};

// Snapshot -> .lockdb bytes. `registry` is the registry the snapshot was
// built with; its type count is recorded in the meta section.
std::string SerializeSnapshot(const AnalysisSnapshot& snapshot, const TypeRegistry& registry,
                              const SnapshotWriteOptions& options = {});
// The same bytes for callers that propagate a Result; serialization itself
// cannot fail.
Result<std::string> SerializeSnapshotBytes(const AnalysisSnapshot& snapshot,
                                           const TypeRegistry& registry,
                                           const SnapshotWriteOptions& options = {});

// .lockdb bytes -> snapshot. `registry` must be the registry the snapshot
// was built with; its type count is verified against the meta section (a
// snapshot is only meaningful against its own registry). The bytes are
// copied once into an aligned owned buffer so numeric table columns can be
// viewed in place; use LoadSnapshot to map a file without that copy.
Result<AnalysisSnapshot> DeserializeSnapshot(std::string_view bytes,
                                             const TypeRegistry& registry,
                                             const SnapshotLoadOptions& options = {});

// Reads just the registry type count from a .lockdb file's meta section,
// without loading (or validating) the rest of the snapshot. Callers use it
// to pick the matching registry before LoadSnapshot — e.g. a snapshot of an
// address-space (mm) workload records more types than the base VFS
// registry. The file is mapped, not read: the scan checks frame headers
// and the small sections' CRCs, so the bulky table payloads stay untouched.
Result<uint64_t> PeekSnapshotTypeCount(const std::string& path);
Result<uint64_t> PeekSnapshotTypeCountFromBytes(std::string_view bytes);

// The registry choice for an input, shared by the CLI and serve: an input
// needs a registry extended past the first `base_type_count` types when it
// references one of the extra types. A trace does when it allocates such a
// type or carries a ranged event (only the extended workload emits ranges).
bool TraceNeedsExtendedRegistry(const Trace& trace, size_t base_type_count);
// A snapshot does when its peeked type count exceeds the base. A failed
// peek counts as base: the load that follows reports the typed error.
bool TypeCountNeedsExtendedRegistry(const Result<uint64_t>& type_count,
                                    size_t base_type_count);

// Ingest + persist in one overlapped pass: imports `trace` (ImportDatabase,
// as BuildSnapshot does), then streams
// the meta/strings/table sections of the .lockdb file to disk on a writer
// thread *while* the main thread extracts observations; only the three
// observation sections wait for extraction. The file is written atomically
// (temp + fsync + rename) and its bytes are identical to
// SaveSnapshot(BuildSnapshot(...)) — the overlap changes when bytes reach
// the disk, never which bytes. With jobs == 1 the phases run strictly
// sequentially (the serial baseline stays honest). Appends the "database
// import", "observation extraction", and "snapshot save" phases to
// `timings`; the save phase reports only the wall time not hidden behind
// extraction. On any error `path` is untouched.
Result<AnalysisSnapshot> BuildAndSaveSnapshot(const Trace& trace, const TypeRegistry& registry,
                                              const PipelineOptions& options,
                                              const std::string& path,
                                              PipelineTimings* timings = nullptr);

// File conveniences. SaveSnapshot writes atomically (temp + fsync +
// rename). LoadSnapshot mmaps the file: the mapping becomes the snapshot's
// backing and numeric columns are zero-copy views into it.
Status SaveSnapshot(const AnalysisSnapshot& snapshot, const TypeRegistry& registry,
                    const std::string& path, const SnapshotWriteOptions& options = {});
Result<AnalysisSnapshot> LoadSnapshot(const std::string& path, const TypeRegistry& registry,
                                      const SnapshotLoadOptions& options = {});

}  // namespace lockdoc

#endif  // SRC_CORE_SNAPSHOT_H_
