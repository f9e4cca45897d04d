// Binary (de)serialization of traces.
//
// Two on-disk formats are understood:
//
//   v1 ("LDTRACE1"): a bare varint record stream —
//       magic | string table | stack table | event count | events
//     No redundancy: one flipped bit or a truncated write makes everything
//     after it unreadable.
//
//   v2 ("LDTRACE2", written by default): a framed stream —
//       magic | frame*
//     where every frame is
//       marker(4) | type(1) | seq(4 LE) | length(4 LE) | payload | crc32(4 LE)
//     The CRC covers type+seq+length+payload. Section frames carry the
//     string table and the stack table; event frames carry bounded chunks
//     of events; a final end frame records the total event count so
//     truncation is always detectable.
//
// Traces can be archived and re-analyzed later, which is the main practical
// advantage the paper claims for ex-post analysis (Sec. 3.3) — and what
// makes the archived file a single point of failure. The reader therefore
// supports a salvage mode: instead of failing on the first bad byte it
// resynchronizes to the next intact frame, returns the partial trace that
// survived, and reports exactly what was lost in a TraceReadReport.
#ifndef SRC_TRACE_TRACE_IO_H_
#define SRC_TRACE_TRACE_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "src/trace/trace.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace lockdoc {

enum class TraceFormat {
  kV1,
  kV2,
};

// v2 framing constants, exposed for the fault-injection corruptor and the
// corruption test suite.
inline constexpr unsigned char kTraceFrameMarker[4] = {0xAB, 'L', 'D', 0xF2};
// marker + type + seq + length.
inline constexpr size_t kTraceFrameHeaderSize = 4 + 1 + 4 + 4;
// CRC trailer.
inline constexpr size_t kTraceFrameTrailerSize = 4;
// Events per event frame written by WriteTrace.
inline constexpr size_t kTraceEventsPerFrame = 4096;

struct TraceReadOptions {
  // When true, bad frames are skipped (resynchronizing to the next intact
  // frame marker) and a partial trace is returned instead of an error.
  // Reading fails only if nothing interpretable survives.
  bool salvage = false;
  // When set, the strict v2 read runs frame CRCs and event-frame decoding
  // on the pool; without one the same code runs inline. The trace and
  // every error message are the same either way and at any thread count.
  // Salvage mode ignores the pool: its walk checks each CRC in place to
  // decide where to resynchronize.
  ThreadPool* pool = nullptr;
};

// What the reader saw. In strict mode a non-clean report never escapes (the
// read fails instead); in salvage mode it itemizes the damage.
struct TraceReadReport {
  // 1 or 2 once the magic was recognized, 0 otherwise.
  uint32_t format_version = 0;
  uint64_t file_size = 0;

  // Framing damage (v2).
  uint64_t frames_ok = 0;
  uint64_t frames_bad_crc = 0;
  uint64_t frames_bad_length = 0;
  uint64_t frames_duplicate = 0;
  // Bytes discarded while scanning for the next frame marker.
  uint64_t bytes_skipped = 0;

  // Record damage.
  uint64_t events_salvaged = 0;
  // Events known to be lost (declared by the writer but not recovered).
  uint64_t events_dropped = 0;
  // Events discarded because their content was malformed (bad enum value,
  // dangling string/stack reference).
  uint64_t bad_event_records = 0;
  // Stack references cleared because the stack table (or the entry) was lost.
  uint64_t stack_refs_cleared = 0;

  bool string_table_lost = false;
  bool stack_table_lost = false;

  // The stream ended mid-frame or the end frame never arrived.
  bool truncated = false;
  uint64_t truncation_offset = 0;

  // True iff the input parsed without any anomaly.
  bool clean() const;
  // Multi-line human-readable damage summary (used by `lockdoc doctor`).
  std::string ToString() const;
};

// Serializes `trace` to `out`. v2 unless asked otherwise.
void WriteTrace(const Trace& trace, std::ostream& out,
                TraceFormat format = TraceFormat::kV2);

// Deserializes a trace from `in`. Strict: fails on the first malformed
// byte, with the byte offset in the error message. Accepts v1 and v2.
Result<Trace> ReadTrace(std::istream& in);

// As above with explicit options; fills `*report` (may be null) in both
// strict and salvage mode.
Result<Trace> ReadTrace(std::istream& in, const TraceReadOptions& options,
                        TraceReadReport* report);

// Parses a trace already resident in memory (the serve spool reads files
// with the hardened loop in src/util/file_io.h and then parses the bytes).
Result<Trace> ReadTraceFromBytes(std::string_view bytes, const TraceReadOptions& options,
                                 TraceReadReport* report);

// Convenience file wrappers.
Status WriteTraceToFile(const Trace& trace, const std::string& path,
                        TraceFormat format = TraceFormat::kV2);
Result<Trace> ReadTraceFromFile(const std::string& path);
Result<Trace> ReadTraceFromFile(const std::string& path, const TraceReadOptions& options,
                                TraceReadReport* report);

}  // namespace lockdoc

#endif  // SRC_TRACE_TRACE_IO_H_
