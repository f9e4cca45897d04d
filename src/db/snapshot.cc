#include "src/db/snapshot.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <set>
#include <utility>

#include "src/util/crc32.h"
#include "src/util/string_util.h"
#include "src/util/varint.h"

namespace lockdoc {
namespace {

// Numeric table columns are stored as raw little-endian words and viewed
// in place; a big-endian host would need a byte-swapping load path that
// nothing targets today.
static_assert(std::endian::native == std::endian::little,
              ".lockdb zero-copy layout requires a little-endian host");

// Caps mirror the trace reader's: large enough for any real snapshot, small
// enough that corrupt lengths cannot drive allocations.
constexpr uint64_t kMaxStringSize = 1ull << 20;
constexpr uint64_t kMaxColumns = 4096;

std::string_view MarkerView() {
  return std::string_view(reinterpret_cast<const char*>(kSnapshotFrameMarker),
                          sizeof(kSnapshotFrameMarker));
}

Status SectionError(uint64_t offset, const std::string& what) {
  return Status::Error(StrFormat("snapshot: offset 0x%llx: %s",
                                 static_cast<unsigned long long>(offset), what.c_str()));
}


// How many bytes could plausibly belong to a payload starting at
// `payload_start`: the distance to the next frame marker (or EOF). Corrupt
// length fields are clamped to this before they are reported, so a length
// that points past a later valid frame cannot inflate the damage report.
uint64_t ClampLengthToNextMarker(std::string_view bytes, size_t payload_start,
                                 uint64_t length) {
  if (payload_start >= bytes.size()) {
    return 0;
  }
  size_t next = bytes.find(MarkerView(), payload_start);
  uint64_t available = (next == std::string_view::npos ? bytes.size() : next) - payload_start;
  return std::min(length, available);
}

}  // namespace

const char* SnapshotSectionName(uint8_t type) {
  switch (type) {
    case kSnapshotSectionMeta:
      return "meta";
    case kSnapshotSectionStrings:
      return "strings";
    case kSnapshotSectionTable:
      return "table";
    case kSnapshotSectionPool:
      return "pool";
    case kSnapshotSectionSeqs:
      return "seqs";
    case kSnapshotSectionGroups:
      return "groups";
    case kSnapshotSectionEnd:
      return "end";
    default:
      return "unknown";
  }
}

Status VerifySectionPayloadCrc(const SnapshotSection& section) {
  if (section.crc_checked) {
    return Status::Ok();
  }
  if (Crc32(section.padded_payload) != section.payload_crc) {
    return SectionError(section.offset, StrFormat("section %s crc mismatch",
                                                  SnapshotSectionName(section.type)));
  }
  return Status::Ok();
}

SnapshotWriter::SnapshotWriter() { out_.append(kSnapshotMagicV2, sizeof(kSnapshotMagicV2)); }

void SnapshotWriter::AddSection(SnapshotSectionType type, std::string_view payload) {
  size_t header_start = out_.size();
  out_.append(MarkerView());
  out_.push_back(static_cast<char>(type));
  // Fixed 32-byte header (see snapshot.h), payload zero-padded to 8.
  uint64_t padded = PaddedPayloadSize(payload.size());
  const char zeros[8] = {0};
  uint32_t payload_crc = Crc32Parallel(payload.data(), payload.size(), crc_pool_);
  payload_crc = Crc32Update(payload_crc, zeros, padded - payload.size());
  out_.append(3, '\0');  // Pad after the type byte.
  AppendUint32LE(out_, next_seq_++);
  AppendUint64LE(out_, payload.size());
  AppendUint32LE(out_, payload_crc);
  out_.append(4, '\0');
  uint32_t header_crc =
      Crc32(out_.data() + header_start + kSnapshotV2TypeOffset,
            kSnapshotV2HeaderCrcOffset - kSnapshotV2TypeOffset);
  AppendUint32LE(out_, header_crc);
  out_.append(payload.data(), payload.size());
  out_.append(padded - payload.size(), '\0');
}

void SnapshotWriter::Reserve(size_t total_bytes) {
  out_.reserve(out_.size() + total_bytes);
}

std::string SnapshotWriter::Finish() {
  std::string payload;
  AppendUint64LE(payload, next_seq_);
  AddSection(kSnapshotSectionEnd, payload);
  return std::move(out_);
}

namespace {

// What can be wrong with one frame, checked in this order.
enum class FrameFault {
  kNone,
  kTruncatedHeader,     // Fewer bytes left than a header.
  kHeaderCrc,           // Nothing in the header can be trusted.
  kImplausibleLength,   // The padded payload would run past the end.
  kPayloadCrc,
};

struct Frame {
  SnapshotSection section;  // Payload views are set once the length verified.
  uint64_t length = 0;      // As declared by the header.
  FrameFault fault = FrameFault::kNone;

  // Where the next frame starts; meaningful only for an intact frame.
  uint64_t end() const {
    return section.offset + kSnapshotV2FrameHeaderSize + PaddedPayloadSize(length);
  }
};

// Reads and verifies the frame whose marker sits at `pos`. Payload CRCs are
// checked per `mode`; a deferred one leaves section.crc_checked false.
Frame ReadFrame(std::string_view bytes, size_t pos, SnapshotScanMode mode) {
  Frame frame;
  SnapshotSection& section = frame.section;
  section.offset = pos;
  if (bytes.size() - pos < kSnapshotV2FrameHeaderSize) {
    frame.fault = FrameFault::kTruncatedHeader;
    return frame;
  }
  const char* header = bytes.data() + pos;
  section.type = static_cast<uint8_t>(header[kSnapshotV2TypeOffset]);
  section.seq = LoadUint32LE(header + kSnapshotV2SeqOffset);
  frame.length = LoadUint64LE(header + kSnapshotV2LengthOffset);
  section.payload_crc = LoadUint32LE(header + kSnapshotV2PayloadCrcOffset);
  if (Crc32(header + kSnapshotV2TypeOffset,
            kSnapshotV2HeaderCrcOffset - kSnapshotV2TypeOffset) !=
      LoadUint32LE(header + kSnapshotV2HeaderCrcOffset)) {
    frame.fault = FrameFault::kHeaderCrc;
    return frame;
  }
  if (frame.length > bytes.size() ||
      PaddedPayloadSize(frame.length) > bytes.size() - pos - kSnapshotV2FrameHeaderSize) {
    frame.fault = FrameFault::kImplausibleLength;
    return frame;
  }
  section.payload = bytes.substr(pos + kSnapshotV2FrameHeaderSize, frame.length);
  section.padded_payload =
      bytes.substr(pos + kSnapshotV2FrameHeaderSize, PaddedPayloadSize(frame.length));
  // The load path defers the (potentially huge) table payload CRCs to the
  // consumer; everything else is cheap enough to verify inline.
  section.crc_checked =
      mode == SnapshotScanMode::kVerifyAll || section.type != kSnapshotSectionTable;
  if (section.crc_checked && Crc32(section.padded_payload) != section.payload_crc) {
    frame.fault = FrameFault::kPayloadCrc;
  }
  return frame;
}

bool IsKnownSectionType(uint8_t type) {
  return type >= kSnapshotSectionMeta && type <= kSnapshotSectionEnd;
}

// The lenient walk behind both InspectSnapshot and RepairSnapshotBytes:
// visits every frame marker after the magic in file order, fully verified.
// An intact frame resumes the search after its payload; a damaged one just
// past its marker, resynchronizing like the trace salvage reader. Returns
// the bytes not covered by any intact frame (gaps, damaged frames, and
// trailing garbage).
template <typename Visit>
uint64_t WalkFrames(std::string_view bytes, Visit&& visit) {
  uint64_t stray_bytes = 0;
  size_t pos = sizeof(kSnapshotMagicV2);
  while (pos < bytes.size()) {
    size_t marker_pos = bytes.find(MarkerView(), pos);
    if (marker_pos == std::string_view::npos) {
      stray_bytes += bytes.size() - pos;
      break;
    }
    stray_bytes += marker_pos - pos;
    Frame frame = ReadFrame(bytes, marker_pos, SnapshotScanMode::kVerifyAll);
    visit(frame);
    if (frame.fault == FrameFault::kTruncatedHeader) {
      break;
    }
    pos = frame.fault == FrameFault::kNone ? frame.end()
                                           : marker_pos + sizeof(kSnapshotFrameMarker);
  }
  return stray_bytes;
}

}  // namespace

Result<std::vector<SnapshotSection>> ScanSnapshotSections(std::string_view bytes,
                                                          SnapshotScanMode mode) {
  if (Status magic = CheckSnapshotMagic(bytes); !magic.ok()) {
    return magic;
  }
  std::vector<SnapshotSection> sections;
  size_t pos = sizeof(kSnapshotMagicV2);
  while (true) {
    if (bytes.size() - pos < kSnapshotV2FrameHeaderSize) {
      return SectionError(pos, "truncated: no end section");
    }
    if (std::memcmp(bytes.data() + pos, kSnapshotFrameMarker,
                    sizeof(kSnapshotFrameMarker)) != 0) {
      return SectionError(pos, "bad section marker");
    }
    Frame frame = ReadFrame(bytes, pos, mode);
    const char* name = SnapshotSectionName(frame.section.type);
    switch (frame.fault) {
      case FrameFault::kNone:
        break;
      case FrameFault::kTruncatedHeader:  // Ruled out above.
      case FrameFault::kHeaderCrc:
        return SectionError(pos, StrFormat("section %s header crc mismatch", name));
      case FrameFault::kImplausibleLength:
        return SectionError(pos, StrFormat("implausible section length %llu",
                                           static_cast<unsigned long long>(frame.length)));
      case FrameFault::kPayloadCrc:
        return SectionError(pos, StrFormat("section %s crc mismatch", name));
    }
    if (frame.section.seq != sections.size()) {
      return SectionError(pos, StrFormat("section out of order (seq %u, expected %zu)",
                                         frame.section.seq, sections.size()));
    }
    pos = frame.end();
    if (frame.section.type == kSnapshotSectionEnd) {
      if (frame.length != sizeof(uint64_t)) {
        return SectionError(pos, "malformed end section");
      }
      uint64_t declared = LoadUint64LE(frame.section.payload.data());
      if (declared != sections.size()) {
        return SectionError(pos, StrFormat("end section declares %llu sections, found %zu",
                                           static_cast<unsigned long long>(declared),
                                           sections.size()));
      }
      if (pos != bytes.size()) {
        return SectionError(pos, "trailing bytes after end section");
      }
      return sections;
    }
    sections.push_back(frame.section);
  }
}

size_t SnapshotInspection::sections_ok() const {
  size_t n = 0;
  for (const SnapshotSectionReport& s : sections) {
    n += s.ok() ? 1 : 0;
  }
  return n;
}

size_t SnapshotInspection::sections_bad() const { return sections.size() - sections_ok(); }

bool SnapshotInspection::clean() const {
  return magic_ok && end_ok && sections_bad() == 0 && declared_sections == sections.size() &&
         stray_bytes == 0;
}

std::string SnapshotInspection::ToString() const {
  std::string out = StrFormat("snapshot size:    %s bytes\n",
                              FormatWithCommas(file_size).c_str());
  out += StrFormat("magic:            %s\n", magic_ok ? "ok (container v2)" : "BAD");
  out += StrFormat("sections:         %zu ok, %zu damaged\n", sections_ok(), sections_bad());
  for (const SnapshotSectionReport& s : sections) {
    const char* verdict = s.ok() ? (s.unrecognized ? "unrecognized (skipped)" : "ok")
                                 : s.problem.c_str();
    out += StrFormat("  [%u] offset 0x%llx %-8s %10s bytes  %s\n", s.seq,
                     static_cast<unsigned long long>(s.offset),
                     s.unrecognized ? StrFormat("type %u", s.type).c_str()
                                    : SnapshotSectionName(s.type),
                     FormatWithCommas(s.payload_size).c_str(), verdict);
  }
  if (end_ok) {
    out += StrFormat("end section:      ok (%llu sections declared, %zu found)\n",
                     static_cast<unsigned long long>(declared_sections), sections.size());
  } else {
    out += "end section:      MISSING or damaged\n";
  }
  if (stray_bytes > 0) {
    out += StrFormat("stray bytes:      %s outside any verified frame\n",
                     FormatWithCommas(stray_bytes).c_str());
  }
  return out;
}

SnapshotInspection InspectSnapshot(std::string_view bytes) {
  SnapshotInspection report;
  report.file_size = bytes.size();
  report.magic_ok = CheckSnapshotMagic(bytes).ok();
  if (!report.magic_ok) {
    return report;
  }
  report.stray_bytes = WalkFrames(bytes, [&](const Frame& frame) {
    SnapshotSectionReport section;
    section.offset = frame.section.offset;
    section.type = frame.section.type;
    section.seq = frame.section.seq;
    section.payload_size = frame.length;
    switch (frame.fault) {
      case FrameFault::kTruncatedHeader:
        section.problem = "truncated header";
        break;
      case FrameFault::kHeaderCrc:
        section.payload_size = 0;  // The declared length is untrusted too.
        section.problem = "header crc mismatch";
        break;
      case FrameFault::kImplausibleLength: {
        // Report only the bytes that could actually belong to this frame,
        // so a corrupt length pointing past a later valid frame does not
        // inflate the report.
        uint64_t clamped = ClampLengthToNextMarker(
            bytes, frame.section.offset + kSnapshotV2FrameHeaderSize, frame.length);
        section.payload_size = clamped;
        section.problem = StrFormat("implausible length %llu (clamped to %llu)",
                                    static_cast<unsigned long long>(frame.length),
                                    static_cast<unsigned long long>(clamped));
        break;
      }
      case FrameFault::kPayloadCrc:
        section.problem = "crc mismatch";
        break;
      case FrameFault::kNone:
        if (!IsKnownSectionType(section.type)) {
          // CRC verified but the type is from a newer writer: the loader
          // skips it wholesale, so it is forward compatibility, not damage.
          section.unrecognized = true;
        } else if (section.type == kSnapshotSectionEnd) {
          // Keep walking either way: sections after the end are damage.
          if (frame.length == sizeof(uint64_t)) {
            report.end_ok = true;
            report.declared_sections = LoadUint64LE(frame.section.payload.data());
            return;
          }
          section.problem = "malformed end section";
        }
        break;
    }
    report.sections.push_back(std::move(section));
  });
  return report;
}

SnapshotRepairResult RepairSnapshotBytes(std::string_view bytes) {
  SnapshotRepairResult result;
  if (Status magic = CheckSnapshotMagic(bytes); !magic.ok()) {
    result.dropped.push_back(magic.message());
    return result;
  }
  // Carry over every verified payload into a fresh container. End sections
  // are never carried (the writer appends a fresh one); duplicated frames —
  // the corruptor's kFrameDuplicate — are dropped after their first
  // occurrence.
  SnapshotWriter writer;
  std::set<std::pair<uint8_t, uint32_t>> seen;
  WalkFrames(bytes, [&](const Frame& frame) {
    const SnapshotSection& section = frame.section;
    auto drop = [&](const char* why) {
      result.dropped.push_back(StrFormat("[%u] offset 0x%llx %s: %s", section.seq,
                                         static_cast<unsigned long long>(section.offset),
                                         SnapshotSectionName(section.type), why));
    };
    switch (frame.fault) {
      case FrameFault::kTruncatedHeader:
        return drop("truncated header");
      case FrameFault::kHeaderCrc:
        return drop("header crc mismatch");
      case FrameFault::kImplausibleLength:
        return drop("implausible length (truncated?)");
      case FrameFault::kPayloadCrc:
        return drop("crc mismatch");
      case FrameFault::kNone:
        break;
    }
    if (section.type == kSnapshotSectionEnd) {
      return;  // The writer appends its own terminator.
    }
    if (!IsKnownSectionType(section.type)) {
      return drop("unknown section type");
    }
    if (!seen.insert({section.type, section.seq}).second) {
      return drop("duplicate frame");
    }
    writer.AddSection(static_cast<SnapshotSectionType>(section.type), section.payload);
    ++result.sections_kept;
  });
  if (result.sections_kept > 0) {
    result.bytes = writer.Finish();
  }
  return result;
}

uint64_t SnapshotContainerVersion(std::string_view bytes) {
  if (bytes.size() < sizeof(kSnapshotMagicV2)) {
    return 0;
  }
  if (std::memcmp(bytes.data(), kSnapshotMagicV1, sizeof(kSnapshotMagicV1)) == 0) {
    return 1;
  }
  if (std::memcmp(bytes.data(), kSnapshotMagicV2, sizeof(kSnapshotMagicV2)) == 0) {
    return 2;
  }
  return 0;
}

Status CheckSnapshotMagic(std::string_view bytes) {
  switch (SnapshotContainerVersion(bytes)) {
    case 2:
      return Status::Ok();
    case 1:
      return Status::Error(
          "snapshot: retired LOCKDB01 container (no longer readable); re-import from the "
          "trace with `lockdoc import`");
    default:
      return Status::Error("snapshot: bad magic (not a .lockdb file)");
  }
}

bool LooksLikeSnapshot(std::string_view bytes) {
  return SnapshotContainerVersion(bytes) != 0;
}

bool IsSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  char magic[sizeof(kSnapshotMagicV2)];
  in.read(magic, sizeof(magic));
  return in.gcount() == static_cast<std::streamsize>(sizeof(magic)) &&
         LooksLikeSnapshot(std::string_view(magic, sizeof(magic)));
}

std::string EncodeStringsSection(const StringPool& pool) {
  std::string payload;
  PutVarint(payload, pool.strings().size());
  for (const std::string& text : pool.strings()) {
    PutLengthPrefixed(payload, text);
  }
  return payload;
}

Status DecodeStringsSection(std::string_view payload, StringPool* pool) {
  ByteCursor in{payload.data(), payload.size(), 0};
  uint64_t count = 0;
  if (!GetVarint(in, &count)) {
    return Status::Error("snapshot strings: bad count");
  }
  if (count == 0 || count > in.remaining() + 1) {
    // Every string costs at least its one length byte; id 0 must exist.
    return Status::Error("snapshot strings: implausible count");
  }
  std::vector<std::string> strings;
  strings.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string text;
    if (!GetLengthPrefixed(in, &text, kMaxStringSize)) {
      return Status::Error(StrFormat("snapshot strings: bad string %llu",
                                     static_cast<unsigned long long>(i)));
    }
    strings.push_back(std::move(text));
  }
  if (in.remaining() != 0) {
    return Status::Error("snapshot strings: trailing bytes");
  }
  if (!strings[0].empty()) {
    return Status::Error("snapshot strings: id 0 is not the empty string");
  }
  pool->Reset(std::move(strings));
  return Status::Ok();
}

namespace {

// The varint-encoded table header: name, column definitions, indexed
// columns, row count.
void EncodeTableHeader(const Table& table, std::string* payload) {
  PutLengthPrefixed(*payload, table.name());
  PutVarint(*payload, table.column_count());
  for (const ColumnDef& column : table.columns()) {
    PutLengthPrefixed(*payload, column.name);
    payload->push_back(static_cast<char>(column.type));
  }
  std::vector<size_t> indexed = table.IndexedColumns();
  PutVarint(*payload, indexed.size());
  for (size_t column : indexed) {
    PutVarint(*payload, column);
  }
  PutVarint(*payload, table.row_count());
}

struct TableHeader {
  std::string name;
  std::vector<ColumnDef> columns;
  std::vector<size_t> indexed;
  uint64_t row_count = 0;
};

Status DecodeTableHeader(ByteCursor& in, TableHeader* header) {
  if (!GetLengthPrefixed(in, &header->name, kMaxStringSize) || header->name.empty()) {
    return Status::Error("snapshot table: bad name");
  }
  auto fail = [header](const std::string& what) {
    return Status::Error(
        StrFormat("snapshot table %s: %s", header->name.c_str(), what.c_str()));
  };
  uint64_t column_count = 0;
  if (!GetVarint(in, &column_count) || column_count == 0 || column_count > kMaxColumns) {
    return fail("bad column count");
  }
  header->columns.reserve(column_count);
  for (uint64_t i = 0; i < column_count; ++i) {
    ColumnDef def;
    if (!GetLengthPrefixed(in, &def.name, kMaxStringSize) || def.name.empty()) {
      return fail("bad column name");
    }
    uint8_t type = 0;
    if (!in.Get(&type) || type > static_cast<uint8_t>(ColumnType::kString)) {
      return fail("bad column type");
    }
    def.type = static_cast<ColumnType>(type);
    header->columns.push_back(std::move(def));
  }
  uint64_t indexed_count = 0;
  if (!GetVarint(in, &indexed_count) || indexed_count > column_count) {
    return fail("bad index count");
  }
  header->indexed.reserve(indexed_count);
  for (uint64_t i = 0; i < indexed_count; ++i) {
    uint64_t column = 0;
    if (!GetVarint(in, &column) || column >= column_count ||
        header->columns[column].type != ColumnType::kUint64 ||
        (!header->indexed.empty() && column <= header->indexed.back())) {
      return fail("bad indexed column");
    }
    header->indexed.push_back(column);
  }
  if (!GetVarint(in, &header->row_count)) {
    return fail("bad row count");
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeTableSectionV2(const Table& table) {
  std::string payload;
  EncodeTableHeader(table, &payload);
  // Numeric columns start at the next 8-byte boundary so a loader mapping
  // the (8-aligned) payload can view them in place.
  payload.append(PaddedPayloadSize(payload.size()) - payload.size(), '\0');
  for (size_t column = 0; column < table.column_count(); ++column) {
    switch (table.columns()[column].type) {
      case ColumnType::kUint64:
        payload.append(reinterpret_cast<const char*>(table.ColumnU64Data(column)),
                       table.row_count() * sizeof(uint64_t));
        break;
      case ColumnType::kDouble:
        payload.append(reinterpret_cast<const char*>(table.ColumnF64Data(column)),
                       table.row_count() * sizeof(double));
        break;
      case ColumnType::kString:
        break;  // Variable-width columns follow the fixed-width block.
    }
  }
  for (size_t column = 0; column < table.column_count(); ++column) {
    if (table.columns()[column].type == ColumnType::kString) {
      for (const std::string& value : table.column_data(column).str) {
        PutLengthPrefixed(payload, value);
      }
    }
  }
  return payload;
}

Status DecodeTableSectionV2(std::string_view payload, bool zero_copy, Database* db) {
  ByteCursor in{payload.data(), payload.size(), 0};
  TableHeader header;
  if (Status status = DecodeTableHeader(in, &header); !status.ok()) {
    return status;
  }
  auto fail = [&header](const std::string& what) {
    return Status::Error(
        StrFormat("snapshot table %s: %s", header.name.c_str(), what.c_str()));
  };
  if (db->HasTable(header.name)) {
    return fail("duplicate table");
  }
  uint64_t pad = PaddedPayloadSize(in.pos) - in.pos;
  if (in.remaining() < pad) {
    return fail("truncated header padding");
  }
  in.pos += pad;
  // In-place views additionally require the mapped payload itself to be
  // 8-aligned; a misaligned buffer silently degrades to copying.
  bool views_ok =
      zero_copy && reinterpret_cast<uintptr_t>(payload.data()) % alignof(uint64_t) == 0;
  uint64_t row_count = header.row_count;
  std::vector<ColumnData> storage(header.columns.size());
  for (size_t column = 0; column < header.columns.size(); ++column) {
    ColumnData& data = storage[column];
    ColumnType type = header.columns[column].type;
    if (type == ColumnType::kString) {
      continue;
    }
    if (row_count > in.remaining() / sizeof(uint64_t)) {
      return fail(type == ColumnType::kUint64 ? "truncated u64 column"
                                              : "truncated f64 column");
    }
    const char* raw = in.data + in.pos;
    if (type == ColumnType::kUint64) {
      if (views_ok) {
        data.u64_view = reinterpret_cast<const uint64_t*>(raw);
        data.view_rows = row_count;
      } else {
        data.u64.resize(row_count);
        std::memcpy(data.u64.data(), raw, row_count * sizeof(uint64_t));
      }
    } else {
      if (views_ok) {
        data.f64_view = reinterpret_cast<const double*>(raw);
        data.view_rows = row_count;
      } else {
        data.f64.resize(row_count);
        std::memcpy(data.f64.data(), raw, row_count * sizeof(double));
      }
    }
    in.pos += row_count * sizeof(uint64_t);
  }
  for (size_t column = 0; column < header.columns.size(); ++column) {
    if (header.columns[column].type != ColumnType::kString) {
      continue;
    }
    ColumnData& data = storage[column];
    if (row_count > in.remaining()) {
      return fail("truncated string column");
    }
    data.str.reserve(row_count);
    for (uint64_t row = 0; row < row_count; ++row) {
      std::string value;
      if (!GetLengthPrefixed(in, &value, kMaxStringSize)) {
        return fail("truncated string column");
      }
      data.str.push_back(std::move(value));
    }
  }
  if (in.remaining() != 0) {
    return fail("trailing bytes");
  }
  Table& table = db->CreateTable(header.name, std::move(header.columns));
  table.ResetRows(row_count, std::move(storage));
  for (size_t column : header.indexed) {
    table.CreateIndex(column);
  }
  return Status::Ok();
}

}  // namespace lockdoc
