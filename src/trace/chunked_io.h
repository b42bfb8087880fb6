//===- trace/chunked_io.h - Chunked trace files (streaming replay) --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The v2 on-disk trace format: the v1 marker lines (trace/serialize.h)
/// grouped into bounded chunks, so multi-GB trace files replay through
/// TraceSinks without ever materializing the trace:
///
///   refinedprosa-trace v2
///   chunk <n>
///   <n marker lines, v1 shape>
///   chunk <m>
///   ...
///   end <EndTime>
///
/// ChunkedTraceWriter is a TraceSink, so the simulator (or any fan-out)
/// can serialize while checking in the same single pass.
///
/// readTraceStream drives a sink from either format: v2 files are read
/// a chunk at a time, v1 files line by line. A chunk is parsed
/// *completely* before any of its events is delivered — a truncated or
/// torn final chunk yields a clean diagnostic and delivers nothing from
/// that chunk (and no onEnd), never a partial chunk. This is the
/// crash-consistency story: everything a sink saw was durably framed.
///
/// The reader takes the stream in blocks of TraceReadBlockBytes and
/// hands out each line as a view into its block; a longer line grows
/// the buffer. Every line, v1 or chunk body, goes through one marker
/// parser, which picks the kind by its first byte and then checks the
/// whole word. After a failed read the stream may have been consumed
/// up to one block past the diagnosed line.
///
/// Both formats follow the grammar of DESIGN.md §9 (support/fields.h):
/// fields are separated by space, tab or CR, so CRLF files read like
/// their LF twins; a field after a line's last one is an error; socket
/// and task ids are 32-bit fields, every other number a 64-bit one.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TRACE_CHUNKED_IO_H
#define RPROSA_TRACE_CHUNKED_IO_H

#include "support/check.h"
#include "trace/serialize.h"
#include "trace/stream.h"

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>

namespace rprosa {

/// Streams markers into \p Out in the v2 chunked format. The header is
/// written on construction, each chunk when it fills, the end line at
/// onEnd.
class ChunkedTraceWriter final : public TraceSink {
public:
  explicit ChunkedTraceWriter(std::ostream &Out,
                              std::size_t EventsPerChunk = 4096);

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override;

  /// Events written so far (across all chunks).
  std::size_t written() const { return NumEvents; }
  bool finished() const { return Finished; }

private:
  void flushChunk();

  std::ostream &Out;
  std::size_t EventsPerChunk;
  std::string Buffer;
  std::size_t Buffered = 0;
  std::size_t NumEvents = 0;
  bool Finished = false;
};

/// The bytes readTraceStream asks its stream for at a time.
inline constexpr std::size_t TraceReadBlockBytes = 64 * 1024;

/// Replay statistics of one readTraceStream call.
struct TraceStreamStats {
  std::size_t Events = 0; ///< Markers delivered to the sink.
  std::size_t Chunks = 0; ///< Chunks fully delivered (v2 only).
  bool SawEnd = false;    ///< The end line was reached (onEnd fired).
};

/// Drives \p Sink from a v1 or v2 trace stream. Returns true iff the
/// stream was well-formed through its end line (onEnd fires exactly
/// then); on malformed input a diagnostic lands in \p Diags and no
/// event of the offending chunk (v2) is delivered. \p Stats, when
/// non-null, reports how much was replayed either way.
bool readTraceStream(std::istream &In, TraceSink &Sink,
                     CheckResult *Diags = nullptr,
                     TraceStreamStats *Stats = nullptr);

/// Batch adapters: write a materialized trace in the v2 format / read
/// either format into a materialized trace (nullopt on malformed
/// input).
void writeTraceStream(std::ostream &Out, const TimedTrace &TT,
                      std::size_t EventsPerChunk = 4096);
std::optional<TimedTrace> readTimedTrace(std::istream &In,
                                         CheckResult *Diags = nullptr);

} // namespace rprosa

#endif // RPROSA_TRACE_CHUNKED_IO_H
