#include "src/trace/trace_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "src/util/crc32.h"
#include "src/util/file_io.h"
#include "src/util/string_util.h"
#include "src/util/varint.h"

namespace lockdoc {
namespace {

constexpr char kMagicV1[8] = {'L', 'D', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr char kMagicV2[8] = {'L', 'D', 'T', 'R', 'A', 'C', 'E', '2'};

enum FrameType : uint8_t {
  kFrameStrings = 1,
  kFrameStacks = 2,
  kFrameEvents = 3,
  kFrameEnd = 4,
};

// Sanity bound on a single frame payload: an event frame is ~100 KiB, and
// even the string table of a huge trace stays far below this.
constexpr uint64_t kMaxFramePayload = 1ull << 30;
// Defensive cap: no interned string in a sane trace exceeds this.
constexpr uint64_t kMaxStringSize = 1u << 20;
constexpr uint64_t kMaxStackFrames = 4096;
// An event record is at least one byte per varint field; bounds reserves
// made from a declared count.
constexpr uint64_t kMinEventRecordBytes = 13;
// Cap on the placeholder pool built when the string table was lost; the
// references in CRC-intact event frames can never legitimately exceed it.
constexpr uint64_t kMaxPlaceholderStrings = 1u << 24;

// The whole stream is buffered before parsing (ByteCursor over the bytes):
// salvage needs random access for resynchronization, and absolute byte
// offsets make every error message actionable. The varint/string decoders
// live in src/util/varint.h, shared with the .lockdb snapshot reader.

void PutString(std::string& out, const std::string& text) {
  PutLengthPrefixed(out, text);
}

bool GetString(ByteCursor& in, std::string* text) {
  return GetLengthPrefixed(in, text, kMaxStringSize);
}

// Bit 8 of the kind varint flags an event that carries a [start, end) range
// (kinds occupy bits 0..2). Rangeless events — which includes every event of
// a pre-range trace — serialize bit-identically to the original layout, so
// old readers and writers interoperate on rangeless traces and old traces
// decode unchanged.
constexpr uint64_t kEventRangeFlag = 8;

void PutEvent(std::string& out, const TraceEvent& e) {
  PutVarint(out, static_cast<uint64_t>(e.kind) | (e.has_range ? kEventRangeFlag : 0));
  PutVarint(out, static_cast<uint64_t>(e.context));
  PutVarint(out, e.task_id);
  PutVarint(out, e.addr);
  PutVarint(out, e.size);
  PutVarint(out, e.type == kInvalidTypeId ? 0 : static_cast<uint64_t>(e.type) + 1);
  PutVarint(out, e.subclass);
  PutVarint(out, static_cast<uint64_t>(e.lock_type));
  PutVarint(out, static_cast<uint64_t>(e.mode));
  PutVarint(out, e.name);
  PutVarint(out, e.loc.file);
  PutVarint(out, e.loc.line);
  PutVarint(out, e.stack == kInvalidStack ? 0 : static_cast<uint64_t>(e.stack) + 1);
  if (e.has_range) {
    PutVarint(out, e.range_start);
    PutVarint(out, e.range_end);
  }
}

// Decodes one event and validates every field that can be checked without
// the side tables (enum ranges, id-width bounds). String/stack references
// are validated by the caller once the tables are known.
bool GetEvent(ByteCursor& in, TraceEvent* e) {
  uint64_t kind = 0;
  uint64_t context = 0;
  uint64_t task_id = 0;
  uint64_t addr = 0;
  uint64_t size = 0;
  uint64_t type = 0;
  uint64_t subclass = 0;
  uint64_t lock_type = 0;
  uint64_t mode = 0;
  uint64_t name = 0;
  uint64_t file = 0;
  uint64_t line = 0;
  uint64_t stack = 0;
  if (!GetVarint(in, &kind) || !GetVarint(in, &context) || !GetVarint(in, &task_id) ||
      !GetVarint(in, &addr) || !GetVarint(in, &size) || !GetVarint(in, &type) ||
      !GetVarint(in, &subclass) || !GetVarint(in, &lock_type) || !GetVarint(in, &mode) ||
      !GetVarint(in, &name) || !GetVarint(in, &file) || !GetVarint(in, &line) ||
      !GetVarint(in, &stack)) {
    return false;
  }
  const bool has_range = (kind & kEventRangeFlag) != 0;
  kind &= ~kEventRangeFlag;
  uint64_t range_start = 0;
  uint64_t range_end = 0;
  if (has_range && (!GetVarint(in, &range_start) || !GetVarint(in, &range_end))) {
    return false;
  }
  if (kind > static_cast<uint64_t>(EventKind::kStaticLockDef) || context > 2 ||
      lock_type >= kNumLockTypes || mode > 1) {
    return false;
  }
  if (task_id > UINT32_MAX || size > UINT32_MAX || type > UINT32_MAX ||
      subclass > UINT32_MAX || name >= UINT32_MAX || file >= UINT32_MAX ||
      line > UINT32_MAX || stack > UINT32_MAX) {
    return false;
  }
  e->kind = static_cast<EventKind>(kind);
  e->context = static_cast<ContextKind>(context);
  e->task_id = static_cast<uint32_t>(task_id);
  e->addr = addr;
  e->size = static_cast<uint32_t>(size);
  e->type = type == 0 ? kInvalidTypeId : static_cast<TypeId>(type - 1);
  e->subclass = static_cast<SubclassId>(subclass);
  e->lock_type = static_cast<LockType>(lock_type);
  e->mode = static_cast<AcquireMode>(mode);
  e->name = static_cast<StringId>(name);
  e->loc.file = static_cast<StringId>(file);
  e->loc.line = static_cast<uint32_t>(line);
  e->stack = stack == 0 ? kInvalidStack : static_cast<StackId>(stack - 1);
  e->has_range = has_range;
  e->range_start = range_start;
  e->range_end = range_end;
  return true;
}

// ---------------------------------------------------------------------------
// Writers.
// ---------------------------------------------------------------------------

std::string EncodeStringsPayload(const Trace& trace) {
  std::string payload;
  const auto& strings = trace.string_pool().strings();
  PutVarint(payload, strings.size());
  for (const std::string& s : strings) {
    PutString(payload, s);
  }
  return payload;
}

std::string EncodeStacksPayload(const Trace& trace) {
  std::string payload;
  const auto& stacks = trace.stacks();
  PutVarint(payload, stacks.size());
  for (const CallStack& stack : stacks) {
    PutVarint(payload, stack.frames.size());
    for (StringId frame : stack.frames) {
      PutVarint(payload, frame);
    }
  }
  return payload;
}

void WriteTraceV1(const Trace& trace, std::ostream& out) {
  out.write(kMagicV1, sizeof(kMagicV1));
  std::string body = EncodeStringsPayload(trace);
  body += EncodeStacksPayload(trace);
  PutVarint(body, trace.size());
  for (const TraceEvent& e : trace.events()) {
    PutEvent(body, e);
  }
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

void WriteFrame(std::ostream& out, uint8_t type, uint32_t seq, const std::string& payload) {
  std::string header;
  header.reserve(kTraceFrameHeaderSize);
  header.append(reinterpret_cast<const char*>(kTraceFrameMarker), sizeof(kTraceFrameMarker));
  header.push_back(static_cast<char>(type));
  AppendUint32LE(header, seq);
  AppendUint32LE(header, static_cast<uint32_t>(payload.size()));
  // The CRC covers everything after the marker: type, seq, length, payload.
  uint32_t crc = Crc32Update(0, header.data() + sizeof(kTraceFrameMarker),
                             header.size() - sizeof(kTraceFrameMarker));
  crc = Crc32Update(crc, payload.data(), payload.size());
  std::string trailer;
  AppendUint32LE(trailer, crc);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
}

void WriteTraceV2(const Trace& trace, std::ostream& out) {
  out.write(kMagicV2, sizeof(kMagicV2));
  uint32_t seq = 0;
  WriteFrame(out, kFrameStrings, seq++, EncodeStringsPayload(trace));
  WriteFrame(out, kFrameStacks, seq++, EncodeStacksPayload(trace));
  const auto& events = trace.events();
  for (size_t start = 0; start < events.size(); start += kTraceEventsPerFrame) {
    size_t count = std::min(kTraceEventsPerFrame, events.size() - start);
    std::string payload;
    PutVarint(payload, count);
    for (size_t i = 0; i < count; ++i) {
      PutEvent(payload, events[start + i]);
    }
    WriteFrame(out, kFrameEvents, seq++, payload);
  }
  std::string end_payload;
  PutVarint(end_payload, events.size());
  WriteFrame(out, kFrameEnd, seq++, end_payload);
}

// ---------------------------------------------------------------------------
// Readers.
// ---------------------------------------------------------------------------

Status OffsetError(size_t offset, const std::string& what) {
  return Status::Error(StrFormat("ReadTrace: offset 0x%llx: %s",
                                 static_cast<unsigned long long>(offset), what.c_str()));
}

// Validates the string/stack references of `e` against the final tables.
// Returns false if the event must be dropped. In salvage mode a dangling
// stack reference is cleared in place instead of dropping the event.
bool FixupEventRefs(TraceEvent* e, size_t pool_size, const std::vector<bool>& stack_valid,
                    bool salvage, TraceReadReport& report) {
  if (e->name >= pool_size || e->loc.file >= pool_size) {
    return false;
  }
  if (e->stack != kInvalidStack &&
      (e->stack >= stack_valid.size() || !stack_valid[e->stack])) {
    if (!salvage) {
      return false;
    }
    e->stack = kInvalidStack;
    ++report.stack_refs_cleared;
  }
  return true;
}

// --- v1: bare record stream. Strict mode fails at the first bad byte; in
// salvage mode everything before that byte survives (prefix truncation is
// the only recovery v1 admits — there is no framing to resynchronize on).
Result<Trace> ReadTraceV1(std::string_view bytes, const TraceReadOptions& options,
                          TraceReadReport& report) {
  report.format_version = 1;
  const bool salvage = options.salvage;
  ByteCursor in{bytes.data(), bytes.size(), sizeof(kMagicV1)};
  Trace trace;

  // String table: without it nothing downstream is interpretable, so a
  // damaged one is unrecoverable even in salvage mode.
  uint64_t string_count = 0;
  if (!GetVarint(in, &string_count) || string_count > in.remaining() + 1) {
    return OffsetError(in.pos, "truncated string table");
  }
  std::vector<std::string> strings;
  strings.reserve(string_count);
  for (uint64_t i = 0; i < string_count; ++i) {
    std::string s;
    if (!GetString(in, &s)) {
      return OffsetError(in.pos, "truncated string entry");
    }
    strings.push_back(std::move(s));
  }
  if (strings.empty() || !strings[0].empty()) {
    return OffsetError(in.pos, "string table must start with the empty string");
  }
  trace.mutable_string_pool().Reset(std::move(strings));
  const size_t pool_size = trace.string_pool().size();

  auto partial = [&](size_t offset) -> Result<Trace> {
    report.truncated = true;
    report.truncation_offset = offset;
    report.events_salvaged = trace.size();
    return std::move(trace);
  };

  // Stack table.
  uint64_t stack_count = 0;
  size_t section_start = in.pos;
  if (!GetVarint(in, &stack_count) || stack_count > in.remaining() + 1) {
    if (salvage) {
      report.stack_table_lost = true;
      return partial(section_start);
    }
    return OffsetError(in.pos, "truncated stack table");
  }
  std::vector<CallStack> stacks;
  stacks.reserve(stack_count);
  for (uint64_t i = 0; i < stack_count; ++i) {
    size_t entry_start = in.pos;
    uint64_t frame_count = 0;
    if (!GetVarint(in, &frame_count) || frame_count > kMaxStackFrames) {
      if (salvage) {
        report.stack_table_lost = true;
        return partial(entry_start);
      }
      return OffsetError(entry_start, "bad stack entry");
    }
    CallStack stack;
    stack.frames.reserve(frame_count);
    bool ok = true;
    for (uint64_t f = 0; f < frame_count; ++f) {
      uint64_t frame = 0;
      if (!GetVarint(in, &frame) || frame >= pool_size) {
        ok = false;
        break;
      }
      stack.frames.push_back(static_cast<StringId>(frame));
    }
    if (!ok) {
      if (salvage) {
        report.stack_table_lost = true;
        return partial(entry_start);
      }
      return OffsetError(entry_start, "bad stack frame");
    }
    stacks.push_back(std::move(stack));
  }
  trace.ResetStacks(std::move(stacks));

  // Events.
  uint64_t event_count = 0;
  section_start = in.pos;
  if (!GetVarint(in, &event_count)) {
    if (salvage) {
      return partial(section_start);
    }
    return OffsetError(in.pos, "truncated event count");
  }
  std::vector<bool> stack_valid(trace.stack_count(), true);
  trace.mutable_events().reserve(
      std::min<uint64_t>(event_count, in.remaining() / kMinEventRecordBytes + 1));
  for (uint64_t i = 0; i < event_count; ++i) {
    size_t record_start = in.pos;
    TraceEvent e;
    if (!GetEvent(in, &e) || !FixupEventRefs(&e, pool_size, stack_valid, salvage, report)) {
      if (salvage) {
        report.events_dropped = event_count - i;
        return partial(record_start);
      }
      return OffsetError(record_start, "truncated or malformed event");
    }
    trace.Append(e);
  }
  report.events_salvaged = trace.size();
  return std::move(trace);
}

// --- v2 frame pieces shared by the strict and the salvage walk.

// The CRC covers everything after the marker: type, seq, length, payload.
bool FrameCrcOk(std::string_view bytes, size_t marker_pos, size_t length) {
  const char* covered = bytes.data() + marker_pos + sizeof(kTraceFrameMarker);
  const size_t size = kTraceFrameHeaderSize - sizeof(kTraceFrameMarker) + length;
  return Crc32(covered, size) == LoadUint32LE(covered + size);
}

// Byte range of one frame payload within the trace.
struct Payload {
  size_t offset = 0;
  size_t length = 0;
};

ByteCursor PayloadCursor(std::string_view bytes, Payload p) {
  return ByteCursor{bytes.data(), p.offset + p.length, p.offset};
}

// Payload decoders. Each reads one CRC-intact frame payload; the walks
// differ only in what a failure means (strict: an OffsetError; salvage: the
// piece is lost).

// The string table must be well formed and start with the empty string.
bool DecodeStringTable(std::string_view bytes, Payload p, std::vector<std::string>* strings) {
  ByteCursor c = PayloadCursor(bytes, p);
  uint64_t count = 0;
  if (!GetVarint(c, &count) || count > p.length) {
    return false;
  }
  strings->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string s;
    if (!GetString(c, &s)) {
      return false;
    }
    strings->push_back(std::move(s));
  }
  return !strings->empty() && (*strings)[0].empty();
}

// String references in the stacks are checked by the caller once the
// string pool is final.
bool DecodeStackTable(std::string_view bytes, Payload p, std::vector<CallStack>* stacks) {
  ByteCursor c = PayloadCursor(bytes, p);
  uint64_t count = 0;
  if (!GetVarint(c, &count) || count > p.length) {
    return false;
  }
  stacks->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t frame_count = 0;
    if (!GetVarint(c, &frame_count) || frame_count > kMaxStackFrames) {
      return false;
    }
    CallStack stack;
    stack.frames.reserve(frame_count);
    for (uint64_t f = 0; f < frame_count; ++f) {
      uint64_t frame = 0;
      if (!GetVarint(c, &frame) || frame >= UINT32_MAX) {
        return false;
      }
      stack.frames.push_back(static_cast<StringId>(frame));
    }
    stacks->push_back(std::move(stack));
  }
  return true;
}

// Outcome of decoding one event frame. The records before the first bad
// one are kept; `records_lost` counts the ones the frame declared but did
// not yield (1 when even the count is unreadable).
struct EventFrameResult {
  const char* error = nullptr;
  size_t error_offset = 0;
  uint64_t records_lost = 0;
};

// Appends the frame's events to `*events`. String and stack references are
// left to the caller.
EventFrameResult DecodeEventFrame(std::string_view bytes, Payload p,
                                  std::vector<TraceEvent>* events) {
  ByteCursor c = PayloadCursor(bytes, p);
  uint64_t count = 0;
  if (!GetVarint(c, &count) || count > p.length) {
    return {"malformed event frame", p.offset, 1};
  }
  // Only a fresh vector is sized up front: the salvage walk appends every
  // frame to one vector, where exact reserves would defeat geometric growth.
  if (events->empty()) {
    events->reserve(std::min<uint64_t>(count, p.length / kMinEventRecordBytes + 1));
  }
  for (uint64_t i = 0; i < count; ++i) {
    size_t record_start = c.pos;
    TraceEvent e;
    if (!GetEvent(c, &e)) {
      return {"truncated or malformed event", record_start, count - i};
    }
    events->push_back(e);
  }
  return {};
}

// --- v2 strict: one serial header walk, then CRC verification and
// event-frame decoding fanned out over the thread pool (inline when no pool
// is given). The first error in file order wins at any thread count: every
// check that precedes a frame's CRC fires immediately during the walk, and
// every check that follows it is recorded as a pending error that only
// surfaces if no earlier frame's CRC failed.
Result<Trace> ReadTraceV2Strict(std::string_view bytes, ThreadPool* pool,
                                TraceReadReport& report) {
  report.format_version = 2;
  const size_t kHeader = kTraceFrameHeaderSize;
  const size_t kTrailer = kTraceFrameTrailerSize;
  const char* marker = reinterpret_cast<const char*>(kTraceFrameMarker);

  struct FrameRef {
    size_t marker_pos = 0;
    size_t length = 0;
  };

  // --- Phase A: serial header walk (no CRCs). ---
  std::vector<FrameRef> frames;
  std::optional<Status> pending;  // First post-CRC structural error.
  std::optional<Payload> strings_frame;
  std::optional<Payload> stacks_frame;
  std::vector<Payload> event_frames;
  std::optional<uint64_t> declared_total;
  bool saw_end = false;
  uint32_t expected_seq = 0;
  size_t pos = sizeof(kMagicV2);
  size_t parse_end = pos;

  while (pos < bytes.size()) {
    if (bytes.compare(pos, sizeof(kTraceFrameMarker), marker, sizeof(kTraceFrameMarker)) !=
        0) {
      return OffsetError(pos, "bad frame marker");
    }
    if (pos + kHeader + kTrailer > bytes.size()) {
      return OffsetError(pos, "truncated frame");
    }
    uint8_t type = static_cast<uint8_t>(bytes[pos + 4]);
    uint32_t seq = LoadUint32LE(bytes.data() + pos + 5);
    uint64_t length = LoadUint32LE(bytes.data() + pos + 9);
    if (length > kMaxFramePayload || pos + kHeader + length + kTrailer > bytes.size()) {
      return OffsetError(pos, StrFormat("frame length %llu exceeds remaining bytes",
                                        static_cast<unsigned long long>(length)));
    }
    size_t payload_off = pos + kHeader;
    size_t frame_end = payload_off + length + kTrailer;
    frames.push_back({pos, length});

    // The writer emits strings, stacks, events*, end — strictly in order.
    if (seq != expected_seq) {
      pending = OffsetError(pos, "frame out of sequence");
      break;
    }
    ++expected_seq;
    if (saw_end) {
      pending = OffsetError(pos, "frame after end frame");
      break;
    }
    if ((seq == 0 && type != kFrameStrings) || (seq == 1 && type != kFrameStacks) ||
        (seq >= 2 && type != kFrameEvents && type != kFrameEnd)) {
      pending = OffsetError(pos, "unexpected frame type");
      break;
    }
    switch (type) {
      case kFrameStrings:
        strings_frame = Payload{payload_off, length};
        break;
      case kFrameStacks:
        stacks_frame = Payload{payload_off, length};
        break;
      case kFrameEvents:
        event_frames.push_back({payload_off, length});
        break;
      case kFrameEnd: {
        ByteCursor c = PayloadCursor(bytes, {payload_off, length});
        uint64_t total = 0;
        if (!GetVarint(c, &total)) {
          pending = OffsetError(payload_off, "malformed end frame");
        } else {
          declared_total = total;
          saw_end = true;
        }
        break;
      }
    }
    if (pending.has_value()) {
      break;
    }
    pos = frame_end;
    parse_end = frame_end;
  }

  // --- Parallel CRC sweep over every frame the walk admitted (including a
  // frame whose structural error is pending: its CRC check comes first in
  // file order). Earliest failure wins. ---
  std::vector<uint8_t> crc_good(frames.size(), 1);
  ParallelFor(pool, frames.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      crc_good[i] = FrameCrcOk(bytes, frames[i].marker_pos, frames[i].length) ? 1 : 0;
    }
  });
  for (size_t i = 0; i < frames.size(); ++i) {
    if (!crc_good[i]) {
      return OffsetError(frames[i].marker_pos, "frame CRC mismatch");
    }
  }
  if (pending.has_value()) {
    return *pending;
  }
  if (!saw_end) {
    return OffsetError(parse_end, "missing end frame (truncated trace)");
  }
  report.frames_ok = frames.size();

  // --- Phase B: payload decoding. Strings and stacks are small and stay
  // serial; event frames decode in parallel into per-frame slots merged in
  // writer order. ---
  if (!strings_frame.has_value()) {
    return OffsetError(parse_end, "missing string table");
  }
  std::vector<std::string> strings;
  if (!DecodeStringTable(bytes, *strings_frame, &strings)) {
    return OffsetError(strings_frame->offset, "malformed string table");
  }
  if (!stacks_frame.has_value()) {
    return OffsetError(parse_end, "missing stack table");
  }
  std::vector<CallStack> stacks;
  if (!DecodeStackTable(bytes, *stacks_frame, &stacks)) {
    return OffsetError(stacks_frame->offset, "malformed stack table");
  }
  const size_t pool_size = strings.size();
  for (const CallStack& stack : stacks) {
    for (StringId frame : stack.frames) {
      if (frame >= pool_size) {
        return OffsetError(stacks_frame->offset, "stack frame references unknown string");
      }
    }
  }

  const size_t stack_count = stacks.size();
  struct FrameDecode {
    std::vector<TraceEvent> events;
    EventFrameResult result;
    // String/stack references are validated during the parallel decode
    // (pool_size and stack_count are fixed by then); decode errors keep
    // priority over reference errors below.
    bool bad_reference = false;
  };
  std::vector<FrameDecode> slots(event_frames.size());
  ParallelFor(pool, slots.size(), [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      FrameDecode& slot = slots[j];
      slot.result = DecodeEventFrame(bytes, event_frames[j], &slot.events);
      for (const TraceEvent& e : slot.events) {
        if (e.name >= pool_size || e.loc.file >= pool_size ||
            (e.stack != kInvalidStack && e.stack >= stack_count)) {
          slot.bad_reference = true;
          break;
        }
      }
    }
  });
  for (const FrameDecode& slot : slots) {
    if (slot.result.error != nullptr) {
      return OffsetError(slot.result.error_offset, slot.result.error);
    }
  }
  for (const FrameDecode& slot : slots) {
    if (slot.bad_reference) {
      return OffsetError(parse_end, "event references unknown string");
    }
  }

  Trace trace;
  trace.mutable_string_pool().Reset(std::move(strings));
  trace.ResetStacks(std::move(stacks));
  size_t total_events = 0;
  for (const FrameDecode& slot : slots) {
    total_events += slot.events.size();
  }
  std::vector<TraceEvent>& merged = trace.mutable_events();
  merged.reserve(total_events);
  for (const FrameDecode& slot : slots) {
    merged.insert(merged.end(), slot.events.begin(), slot.events.end());
  }
  // Append() would have renumbered each event as it landed; do the same.
  for (size_t i = 0; i < merged.size(); ++i) {
    merged[i].seq = i;
  }

  report.events_salvaged = trace.size();
  if (*declared_total != report.events_salvaged) {
    return OffsetError(parse_end,
                       StrFormat("event count mismatch: declared %llu, read %llu",
                                 static_cast<unsigned long long>(*declared_total),
                                 static_cast<unsigned long long>(report.events_salvaged)));
  }
  return std::move(trace);
}

// --- v2 salvage: one sequential walk that checks each frame's CRC in place,
// so a bad frame is skipped by rescanning for the next marker. Intact frames
// are accepted in any order (sorted by seq before assembly; a repeated seq
// is a duplicate), and a lost table is reported instead of failing.
Result<Trace> ReadTraceV2Salvage(std::string_view bytes, TraceReadReport& report) {
  report.format_version = 2;
  const size_t kHeader = kTraceFrameHeaderSize;
  const size_t kTrailer = kTraceFrameTrailerSize;
  const char* marker = reinterpret_cast<const char*>(kTraceFrameMarker);

  std::optional<Payload> strings_frame;
  std::optional<Payload> stacks_frame;
  std::vector<std::pair<uint32_t, Payload>> event_frames;  // (seq, payload)
  std::optional<uint64_t> declared_total;
  bool saw_end = false;
  std::set<uint32_t> seen_seqs;
  size_t pos = sizeof(kMagicV2);
  size_t parse_end = pos;

  // --- Phase 1: frame scan. ---
  while (pos < bytes.size()) {
    size_t marker_pos = bytes.find(marker, pos, sizeof(kTraceFrameMarker));
    if (marker_pos == std::string::npos) {
      report.bytes_skipped += bytes.size() - pos;
      break;
    }
    report.bytes_skipped += marker_pos - pos;
    if (marker_pos + kHeader + kTrailer > bytes.size()) {
      // Not even a complete header + CRC left: cut mid-frame.
      report.truncated = true;
      report.truncation_offset = marker_pos;
      report.bytes_skipped += bytes.size() - marker_pos;
      break;
    }
    uint8_t type = static_cast<uint8_t>(bytes[marker_pos + 4]);
    uint32_t seq = LoadUint32LE(bytes.data() + marker_pos + 5);
    uint64_t length = LoadUint32LE(bytes.data() + marker_pos + 9);
    if (length > kMaxFramePayload || marker_pos + kHeader + length + kTrailer > bytes.size()) {
      // A lying length field (or genuine truncation). Rescan just past this
      // marker: if the rest of the frame is intact, the next marker is real.
      ++report.frames_bad_length;
      pos = marker_pos + sizeof(kTraceFrameMarker);
      continue;
    }
    if (!FrameCrcOk(bytes, marker_pos, length)) {
      ++report.frames_bad_crc;
      pos = marker_pos + sizeof(kTraceFrameMarker);
      continue;
    }

    // Intact frame.
    const Payload payload{marker_pos + kHeader, length};
    size_t frame_end = payload.offset + length + kTrailer;
    if (!seen_seqs.insert(seq).second) {
      ++report.frames_duplicate;
      pos = frame_end;
      continue;
    }
    ++report.frames_ok;
    switch (type) {
      case kFrameStrings:
        if (!strings_frame.has_value()) {
          strings_frame = payload;
        }
        break;
      case kFrameStacks:
        if (!stacks_frame.has_value()) {
          stacks_frame = payload;
        }
        break;
      case kFrameEvents:
        event_frames.emplace_back(seq, payload);
        break;
      case kFrameEnd: {
        ByteCursor c = PayloadCursor(bytes, payload);
        uint64_t total = 0;
        if (GetVarint(c, &total)) {
          declared_total = total;
          saw_end = true;
        }
        break;
      }
      default:
        break;  // Intact but unknown: skip (forward compatibility).
    }
    pos = frame_end;
    parse_end = frame_end;
  }

  if (!saw_end) {
    report.truncated = true;
    if (report.truncation_offset == 0) {
      report.truncation_offset = parse_end;
    }
  }
  if (report.frames_ok == 0) {
    return OffsetError(sizeof(kMagicV2), "no intact frames");
  }

  // --- Phase 2: assemble the trace from the intact frames. ---
  std::vector<std::string> strings;
  if (!strings_frame.has_value() || !DecodeStringTable(bytes, *strings_frame, &strings)) {
    strings.clear();
    report.string_table_lost = true;
  }
  std::vector<CallStack> stacks;
  if (!stacks_frame.has_value() || !DecodeStackTable(bytes, *stacks_frame, &stacks)) {
    stacks.clear();
    report.stack_table_lost = true;
  }

  // Event records in writer order (duplicates were already dropped).
  std::sort(event_frames.begin(), event_frames.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<TraceEvent> events;
  for (const auto& [seq, payload] : event_frames) {
    report.bad_event_records += DecodeEventFrame(bytes, payload, &events).records_lost;
  }

  // Decide the final string pool. When the table was lost, CRC-intact event
  // and stack frames still carry genuine writer-produced ids, so a
  // placeholder pool bounded by the maximum reference keeps every lookup
  // safe while preserving the trace's structure.
  uint64_t max_sid = 0;
  for (const CallStack& stack : stacks) {
    for (StringId frame : stack.frames) {
      max_sid = std::max<uint64_t>(max_sid, frame);
    }
  }
  for (const TraceEvent& e : events) {
    max_sid = std::max<uint64_t>(max_sid, e.name);
    max_sid = std::max<uint64_t>(max_sid, e.loc.file);
  }
  if (report.string_table_lost) {
    if (max_sid >= kMaxPlaceholderStrings) {
      return OffsetError(sizeof(kMagicV2), "string table lost and references unbounded");
    }
    strings.reserve(max_sid + 1);
    strings.emplace_back();
    for (uint64_t i = 1; i <= max_sid; ++i) {
      strings.push_back(StrFormat("lost#%llu", static_cast<unsigned long long>(i)));
    }
  }
  const size_t pool_size = strings.size();

  // A stack with a dangling string reference is dropped; events pointing at
  // it get their reference cleared below.
  std::vector<bool> stack_valid(stacks.size(), true);
  for (size_t i = 0; i < stacks.size(); ++i) {
    for (StringId frame : stacks[i].frames) {
      if (frame >= pool_size) {
        stack_valid[i] = false;
        stacks[i].frames.clear();
        break;
      }
    }
  }

  Trace trace;
  trace.mutable_string_pool().Reset(std::move(strings));
  trace.ResetStacks(std::move(stacks));
  for (TraceEvent& e : events) {
    if (!FixupEventRefs(&e, pool_size, stack_valid, /*salvage=*/true, report)) {
      ++report.bad_event_records;
      continue;
    }
    trace.Append(e);
  }

  report.events_salvaged = trace.size();
  if (declared_total.has_value() && *declared_total > report.events_salvaged) {
    report.events_dropped = *declared_total - report.events_salvaged;
  } else {
    report.events_dropped = report.bad_event_records;
  }
  return std::move(trace);
}

}  // namespace

bool TraceReadReport::clean() const {
  return frames_bad_crc == 0 && frames_bad_length == 0 && frames_duplicate == 0 &&
         bytes_skipped == 0 && events_dropped == 0 && bad_event_records == 0 &&
         stack_refs_cleared == 0 && !string_table_lost && !stack_table_lost && !truncated;
}

std::string TraceReadReport::ToString() const {
  std::string out;
  out += StrFormat("format:            v%u\n", format_version);
  out += StrFormat("file size:         %s bytes\n", FormatWithCommas(file_size).c_str());
  out += StrFormat("events salvaged:   %s\n", FormatWithCommas(events_salvaged).c_str());
  out += StrFormat("events dropped:    %s\n", FormatWithCommas(events_dropped).c_str());
  if (format_version >= 2) {
    out += StrFormat("frames ok:         %s\n", FormatWithCommas(frames_ok).c_str());
    out += StrFormat("frames bad CRC:    %s\n", FormatWithCommas(frames_bad_crc).c_str());
    out += StrFormat("frames bad length: %s\n", FormatWithCommas(frames_bad_length).c_str());
    out += StrFormat("frames duplicate:  %s\n", FormatWithCommas(frames_duplicate).c_str());
    out += StrFormat("bytes skipped:     %s\n", FormatWithCommas(bytes_skipped).c_str());
  }
  out += StrFormat("bad event records: %s\n", FormatWithCommas(bad_event_records).c_str());
  out += StrFormat("stack refs lost:   %s\n", FormatWithCommas(stack_refs_cleared).c_str());
  if (string_table_lost) {
    out += "string table:      LOST (placeholder names substituted)\n";
  }
  if (stack_table_lost) {
    out += "stack table:       LOST (stack references cleared)\n";
  }
  if (truncated) {
    out += StrFormat("truncated at:      offset 0x%llx\n",
                     static_cast<unsigned long long>(truncation_offset));
  }
  return out;
}

void WriteTrace(const Trace& trace, std::ostream& out, TraceFormat format) {
  if (format == TraceFormat::kV1) {
    WriteTraceV1(trace, out);
  } else {
    WriteTraceV2(trace, out);
  }
}

Result<Trace> ReadTrace(std::istream& in) { return ReadTrace(in, {}, nullptr); }

Result<Trace> ReadTrace(std::istream& in, const TraceReadOptions& options,
                        TraceReadReport* report) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = std::move(buffer).str();
  if (in.bad()) {
    return Status::Error("ReadTrace: I/O error while reading stream");
  }
  return ReadTraceFromBytes(bytes, options, report);
}

Result<Trace> ReadTraceFromBytes(std::string_view bytes, const TraceReadOptions& options,
                                 TraceReadReport* report) {
  TraceReadReport local;
  TraceReadReport& rep = report != nullptr ? *report : local;
  rep = TraceReadReport{};
  rep.file_size = bytes.size();

  if (bytes.size() < sizeof(kMagicV1)) {
    return Status::Error("ReadTrace: offset 0x0: input shorter than magic");
  }
  if (std::memcmp(bytes.data(), kMagicV2, sizeof(kMagicV2)) == 0) {
    return options.salvage ? ReadTraceV2Salvage(bytes, rep)
                           : ReadTraceV2Strict(bytes, options.pool, rep);
  }
  if (std::memcmp(bytes.data(), kMagicV1, sizeof(kMagicV1)) == 0) {
    return ReadTraceV1(bytes, options, rep);
  }
  return Status::Error("ReadTrace: offset 0x0: bad magic");
}

Status WriteTraceToFile(const Trace& trace, const std::string& path, TraceFormat format) {
  // Serialize in memory, then land on disk atomically (temp + fsync +
  // rename): a crash mid-write leaves the old file or no file, never a torn
  // trace that would need salvaging.
  std::ostringstream out;
  WriteTrace(trace, out, format);
  if (!out) {
    return Status::Error("WriteTraceToFile: serialization failed for " + path);
  }
  Status written = WriteFileAtomic(path, out.str());
  if (!written.ok()) {
    return Status::Error("WriteTraceToFile: " + written.message());
  }
  return Status::Ok();
}

Result<Trace> ReadTraceFromFile(const std::string& path) {
  return ReadTraceFromFile(path, {}, nullptr);
}

Result<Trace> ReadTraceFromFile(const std::string& path, const TraceReadOptions& options,
                                TraceReadReport* report) {
  // Hardened slurp (EINTR + short-read loops) so pipes and pseudo-files
  // deliver the same bytes a regular file would.
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) {
    return Status::Error("ReadTraceFromFile: " + bytes.status().message());
  }
  return ReadTraceFromBytes(bytes.value(), options, report);
}

}  // namespace lockdoc
