// The .lockdb snapshot container: a versioned, sectioned, CRC-checksummed
// binary format persisting an imported analysis database so traces are
// imported ONCE and analyzed many times (the paper keeps its MariaDB
// instance around for the same reason, Sec. 5.3).
//
// One container is written and read, LOCKDB02 (full spec:
// docs/lockdb-format.md), the zero-copy layout: every frame starts at an
// 8-byte-aligned offset, headers are fixed 32-byte blocks with explicit
// 64-bit payload lengths, and the payload CRC is stored in the header so a
// loader can map the file and defer payload checksumming:
//
//   magic "LOCKDB02" (8 bytes)
//   frame*: marker {0xAB,'L','D',0xF3} | type (1) | pad (3 zero)
//           | seq (4 LE) | length (8 LE, unpadded payload bytes)
//           | payload crc32 (4 LE, over the padded payload)
//           | pad (4 zero) | header crc32 (4 LE, over bytes 4..28)
//           | payload, zero-padded to a multiple of 8
//   end frame (type kSnapshotSectionEnd, payload = u64 LE section count)
//
// Every frame is independently verifiable, so corruption is localized —
// `lockdoc doctor` reports per-section damage. Header CRCs are always
// verified; payload CRCs are verified eagerly by doctor/repair and lazily
// by the load path (sections that are decoded into memory verify before
// decoding, mmap-viewed sections are left to doctor). Sections are written
// in the fixed order of SnapshotSectionOrder (src/core/snapshot.cc); a
// snapshot's bytes are identical no matter how many threads built the
// analysis.
//
// The retired LOCKDB01 container is still recognised by its magic but
// never read: every reader fails it with the same typed error, which tells
// the user to re-import from the trace (a .lockdb is a cache of its trace).
//
// This layer knows containers and the db-level payloads (string pool,
// tables); the analysis-level payloads (lock-class pool, interned
// sequences, observation groups) live in src/core/snapshot.h, keeping the
// db -> core dependency direction intact.
#ifndef SRC_DB_SNAPSHOT_H_
#define SRC_DB_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/db/database.h"
#include "src/trace/string_pool.h"
#include "src/util/status.h"

namespace lockdoc {
class ThreadPool;
}

namespace lockdoc {

// The retired LOCKDB01 magic, kept only to recognise such files.
constexpr char kSnapshotMagicV1[8] = {'L', 'O', 'C', 'K', 'D', 'B', '0', '1'};
constexpr char kSnapshotMagicV2[8] = {'L', 'O', 'C', 'K', 'D', 'B', '0', '2'};
constexpr uint8_t kSnapshotFrameMarker[4] = {0xAB, 'L', 'D', 0xF3};
// marker + type + pad3 + seq + length64 + payload_crc + pad4 + header_crc.
constexpr size_t kSnapshotV2FrameHeaderSize = 32;
// Offsets into a v2 frame header (from the marker).
constexpr size_t kSnapshotV2TypeOffset = 4;
constexpr size_t kSnapshotV2SeqOffset = 8;
constexpr size_t kSnapshotV2LengthOffset = 12;
constexpr size_t kSnapshotV2PayloadCrcOffset = 20;
constexpr size_t kSnapshotV2HeaderCrcOffset = 28;
// Payloads are zero-padded to the next 8-byte boundary so every frame
// header (and the numeric column data inside table payloads) stays 8-aligned
// in the mapped file.
constexpr uint64_t PaddedPayloadSize(uint64_t length) { return (length + 7) & ~uint64_t{7}; }
// Payload format version carried in the meta section, pinned by the
// container version.
constexpr uint64_t kSnapshotFormatVersionV2 = 2;

enum SnapshotSectionType : uint8_t {
  kSnapshotSectionMeta = 1,     // Version, import/trace stats, registry shape.
  kSnapshotSectionStrings = 2,  // The database's string pool.
  kSnapshotSectionTable = 3,    // One database table (repeats, name order).
  kSnapshotSectionPool = 4,     // Interned lock classes, id order.
  kSnapshotSectionSeqs = 5,     // Interned lock sequences, id order.
  kSnapshotSectionGroups = 6,   // Folded observation groups, key order.
  kSnapshotSectionEnd = 7,      // Terminator carrying the section count.
};

// Human name for diagnostics ("meta", "table", ...; "unknown" otherwise).
const char* SnapshotSectionName(uint8_t type);

// One parsed section; `payload` points into the scanned buffer.
struct SnapshotSection {
  uint8_t type = 0;
  uint32_t seq = 0;
  std::string_view payload;  // Unpadded payload bytes.
  uint64_t offset = 0;       // Of the frame marker in the file.
  // Bookkeeping for deferred payload verification: the CRC domain
  // (payload incl. zero padding), the stored CRC, and whether the scan
  // already checked it.
  std::string_view padded_payload;
  uint32_t payload_crc = 0;
  bool crc_checked = true;
};

// Verifies a section whose payload CRC the scan deferred; Ok() when the
// scan already checked it.
Status VerifySectionPayloadCrc(const SnapshotSection& section);

// Serializes sections into the container format. Usage: AddSection for each
// payload in order, then Finish exactly once.
class SnapshotWriter {
 public:
  SnapshotWriter();

  void AddSection(SnapshotSectionType type, std::string_view payload);

  // Grows the output buffer once instead of doubling through AddSection
  // appends; `total_bytes` should be the sum of framed section sizes.
  void Reserve(size_t total_bytes);

  // When set, payload CRCs are computed on the pool (chunked and combined;
  // bit-identical to the serial CRC). Section *content* never depends on
  // this — only how fast the checksum is computed.
  void set_crc_pool(ThreadPool* pool) { crc_pool_ = pool; }

  // Bytes framed so far; grows with every AddSection. Streaming writers
  // flush this incrementally to disk while later sections are still being
  // produced, then write whatever Finish() returns beyond the flushed
  // prefix (Finish only appends, it never rewrites earlier bytes).
  std::string_view pending() const { return out_; }

  // Appends the end section and returns the complete file bytes.
  std::string Finish();

 private:
  std::string out_;
  uint32_t next_seq_ = 0;
  ThreadPool* crc_pool_ = nullptr;
};

// How much of a snapshot the strict scan checksums. kVerifyAll is the
// doctor/ingest-validation mode; kVerifyHeaders is the zero-copy load mode
// — frame structure and header CRCs verify, table payload CRCs are
// deferred to VerifySectionPayloadCrc.
enum class SnapshotScanMode {
  kVerifyAll,
  kVerifyHeaders,
};

// Strict parse of a whole snapshot: magic (CheckSnapshotMagic), structure,
// CRCs per `mode`, contiguous sequence numbers, and a correct end section
// are all required. Returns the sections in file order, end
// section excluded; payloads view into `bytes`.
Result<std::vector<SnapshotSection>> ScanSnapshotSections(
    std::string_view bytes, SnapshotScanMode mode = SnapshotScanMode::kVerifyAll);

// Lenient walk for diagnostics (lockdoc doctor): records every section's
// status instead of stopping at the first fault, resynchronizing on the
// frame marker after damage like the trace salvage reader.
struct SnapshotSectionReport {
  uint64_t offset = 0;  // Of the frame marker.
  uint8_t type = 0;
  uint32_t seq = 0;
  uint64_t payload_size = 0;
  std::string problem;  // Empty when the section verified.
  // CRC-intact section of a type this build does not know (a future
  // writer's extension). Skipped by the loader, reported as "unrecognized
  // (skipped)" by doctor — forward compatibility, not damage.
  bool unrecognized = false;

  bool ok() const { return problem.empty(); }
};

struct SnapshotInspection {
  uint64_t file_size = 0;
  bool magic_ok = false;  // False for the retired LOCKDB01 container too.
  std::vector<SnapshotSectionReport> sections;
  bool end_ok = false;           // Intact end section with a correct count.
  uint64_t declared_sections = 0;  // From the end section when readable.
  // Bytes not covered by any verified frame: gaps between sections or
  // trailing garbage after the end section. The strict reader rejects both.
  uint64_t stray_bytes = 0;

  size_t sections_ok() const;
  size_t sections_bad() const;
  // True when the snapshot would load: magic, all sections, and the
  // terminator verified.
  bool clean() const;
  // Multi-line diagnostic block.
  std::string ToString() const;
};

SnapshotInspection InspectSnapshot(std::string_view bytes);

// Container-level repair (`lockdoc doctor FILE.lockdb --repair OUT`): walks
// the damaged container with InspectSnapshot's frame walk, keeps every
// section whose CRC verifies, and re-emits them in file order with fresh
// contiguous sequence numbers, CRCs, and end section. The result is always a *structurally* clean container; whether
// it still loads depends on which sections survived (a dropped meta or
// strings section is fatal to payload decoding, a dropped table section is
// not). Mirrors the trace doctor's --repair, which re-writes the salvaged
// events as a fresh v2 file.
struct SnapshotRepairResult {
  std::string bytes;         // Empty when not even the magic survived.
  size_t sections_kept = 0;
  // One human-readable line per section that could not be carried over
  // ("[3] offset 0x... table: crc mismatch").
  std::vector<std::string> dropped;

  bool salvageable() const { return !bytes.empty() && sections_kept > 0; }
};

SnapshotRepairResult RepairSnapshotBytes(std::string_view bytes);

// Magic sniffers so CLI commands accept a trace or a snapshot and decide by
// content, not file extension. The retired LOCKDB01 magic matches too, so
// such a file reaches a snapshot reader and gets its typed error instead of
// being misread as a trace.
bool LooksLikeSnapshot(std::string_view bytes);
// 1 (retired LOCKDB01), 2, or 0 when `bytes` does not start with a .lockdb
// magic.
uint64_t SnapshotContainerVersion(std::string_view bytes);
// Ok for a LOCKDB02 magic. Otherwise the error every reader reports: for a
// LOCKDB01 file, that the container is retired and the snapshot must be
// re-imported from its trace; for anything else, a bad magic.
Status CheckSnapshotMagic(std::string_view bytes);
// Reads just the first bytes of `path`; false on unreadable files.
bool IsSnapshotFile(const std::string& path);

// --- Section payload codecs for the db layer ---

// Strings section: varint count, then each string length-prefixed, id order
// (strings are always decoded into memory).
std::string EncodeStringsSection(const StringPool& pool);
Status DecodeStringsSection(std::string_view payload, StringPool* pool);

// Table section: a varint-encoded header (name, column definitions,
// indexed columns, row count) zero-padded to an 8-byte boundary, then
// u64/f64 columns as raw 8-byte LE arrays in column order — viewable in
// place when the payload is 8-aligned and the host is little-endian — and
// string columns length-prefixed at the end. Decoding creates the table in
// `db` (the name must not exist yet) and declares its hash indexes (built
// lazily on first lookup). `DecodeTableSectionV2` attaches u64/f64 columns
// as zero-copy views into `payload` when `zero_copy` is set (the caller
// guarantees the backing bytes outlive the database); otherwise it copies.
std::string EncodeTableSectionV2(const Table& table);
Status DecodeTableSectionV2(std::string_view payload, bool zero_copy, Database* db);

}  // namespace lockdoc

#endif  // SRC_DB_SNAPSHOT_H_
