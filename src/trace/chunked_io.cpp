//===- trace/chunked_io.cpp -----------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/chunked_io.h"

#include "support/fields.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

using namespace rprosa;

ChunkedTraceWriter::ChunkedTraceWriter(std::ostream &Out,
                                       std::size_t EventsPerChunk)
    : Out(Out), EventsPerChunk(EventsPerChunk ? EventsPerChunk : 1) {
  Out << "refinedprosa-trace v2\n";
}

void ChunkedTraceWriter::flushChunk() {
  if (Buffered == 0)
    return;
  Out << "chunk " << Buffered << '\n' << Buffer;
  Buffer.clear();
  Buffered = 0;
}

void ChunkedTraceWriter::onMarker(const MarkerEvent &E, Time At) {
  appendMarkerLine(Buffer, At, E);
  ++Buffered;
  ++NumEvents;
  if (Buffered >= EventsPerChunk)
    flushChunk();
}

void ChunkedTraceWriter::onEnd(Time EndTime) {
  flushChunk();
  Out << "end " << EndTime << '\n';
  Out.flush();
  Finished = true;
}

namespace {

/// The lines of a stream, read TraceReadBlockBytes at a time. Each line
/// is a view into the block buffer, valid until the next call; a line
/// that does not fit doubles the buffer, as std::getline's string would
/// grow.
class LineSource {
public:
  explicit LineSource(std::istream &In) : In(In), Buf(TraceReadBlockBytes) {}

  /// The next line without its '\n'; false at the end of the stream.
  bool next(std::string_view &Line) {
    // Bytes of the partial line already known to hold no '\n'.
    std::size_t Scanned = 0;
    for (;;) {
      const char *From = Buf.data() + Begin;
      const std::size_t Size = End - Begin;
      if (const auto *Nl = static_cast<const char *>(
              std::memchr(From + Scanned, '\n', Size - Scanned))) {
        Line = {From, static_cast<std::size_t>(Nl - From)};
        Begin += Line.size() + 1;
        return true;
      }
      Scanned = Size;
      if (!fill()) {
        // The last line may lack its '\n'.
        Line = {Buf.data() + Begin, Size};
        Begin = End;
        return Size > 0;
      }
    }
  }

private:
  /// Moves the partial line to the front of the buffer, doubling the
  /// buffer when the line fills it, and reads the next block behind it;
  /// false once the stream has nothing more.
  bool fill() {
    const std::size_t Partial = End - Begin;
    std::memmove(Buf.data(), Buf.data() + Begin, Partial);
    Begin = 0;
    End = Partial;
    if (End == Buf.size())
      Buf.resize(2 * Buf.size());
    In.read(Buf.data() + End, static_cast<std::streamsize>(Buf.size() - End));
    const auto Got = static_cast<std::size_t>(In.gcount());
    End += Got;
    return Got > 0;
  }

  std::istream &In;
  std::vector<char> Buf;
  /// The unread bytes are [Begin, End).
  std::size_t Begin = 0, End = 0;
};

/// The marker kind \p Word names (it is not empty): one switch on its
/// first byte, then one comparison with the whole word.
std::optional<MarkerKind> markerKindNamed(std::string_view Word) {
  auto Named = [Word](MarkerKind K) -> std::optional<MarkerKind> {
    if (Word != markerWord(K))
      return std::nullopt;
    return K;
  };
  switch (Word.front()) {
  case 'R':
    return Word.back() == 'S' ? Named(MarkerKind::ReadS)
                              : Named(MarkerKind::ReadE);
  case 'S':
    return Named(MarkerKind::Selection);
  case 'D':
    return Named(MarkerKind::Dispatch);
  case 'E':
    return Named(MarkerKind::Execution);
  case 'C':
    return Named(MarkerKind::Completion);
  case 'I':
    return Named(MarkerKind::Idling);
  default:
    return std::nullopt;
  }
}

/// The job fields `<jobid> <msgid> <task> <readat>` into \p J; task is
/// a 32-bit field.
bool parseJobFields(FieldCursor &C, Job &J) {
  std::optional<std::uint64_t> Id = C.nextU64();
  std::optional<std::uint64_t> Msg = C.nextU64();
  std::optional<std::uint32_t> Task = C.nextU32();
  std::optional<std::uint64_t> ReadAt = C.nextU64();
  if (!Id || !Msg || !Task || !ReadAt)
    return false;
  J.Id = *Id;
  J.Msg = *Msg;
  J.Task = *Task;
  J.ReadAt = *ReadAt;
  return true;
}

struct Reader {
  Reader(std::istream &In, TraceSink &Sink, CheckResult *Diags,
         TraceStreamStats *Stats)
      : Lines(In), Sink(Sink), Diags(Diags), Stats(Stats) {}

  LineSource Lines;
  TraceSink &Sink;
  CheckResult *Diags;
  TraceStreamStats *Stats;
  std::size_t LineNo = 0;
  std::string_view Line;
  /// Parsed-but-undelivered events of the chunk in flight: delivery
  /// happens only once the whole chunk parsed (no partial chunks).
  std::vector<std::pair<MarkerEvent, Time>> Chunk;

  bool fail(const std::string &Why) {
    if (Diags)
      Diags->addFailure("trace parse error at line " +
                        std::to_string(LineNo) + ": " + Why);
    return false;
  }

  /// Next line verbatim; false at end of stream.
  bool nextLineRaw() {
    if (!Lines.next(Line))
      return false;
    ++LineNo;
    return true;
  }

  /// Next line with a field, with \p C past its \p First field; false
  /// at end of stream. Only valid *between* records: inside a chunk
  /// body every line is an event, so blank lines must be diagnosed, not
  /// skipped (readChunk).
  bool nextRecord(FieldCursor &C, std::string_view &First) {
    while (nextLineRaw()) {
      C = FieldCursor(Line);
      First = C.next();
      if (!First.empty())
        return true;
    }
    return false;
  }

  /// The rest of a `<ts> <marker...>` line (serialize.h) whose first
  /// field \p Stamp \p C has split off, into (\p Ts, \p E).
  bool parseMarker(std::string_view Stamp, FieldCursor &C, Time &Ts,
                   MarkerEvent &E) {
    std::optional<std::uint64_t> At = parseU64(Stamp);
    if (!At)
      return fail("expected a timestamp");
    Ts = *At;

    std::string_view Word = C.next();
    if (Word.empty())
      return fail("missing marker kind");
    std::optional<MarkerKind> Kind = markerKindNamed(Word);
    if (!Kind)
      return fail("unknown marker kind '" + std::string(Word) + "'");
    E.Kind = *Kind;
    E.Socket = 0;
    E.J.reset();
    switch (*Kind) {
    case MarkerKind::ReadE: {
      std::optional<std::uint32_t> Sock = C.nextU32();
      std::string_view Status = C.next();
      if (!Sock || Status.empty())
        return fail("malformed ReadE");
      E.Socket = *Sock;
      if (Status == "ok") {
        if (!parseJobFields(C, E.J.emplace()))
          return fail("malformed ReadE job fields");
        E.J->Socket = *Sock;
      } else if (Status != "fail") {
        return fail("ReadE status must be ok/fail");
      }
      break;
    }
    case MarkerKind::Dispatch:
    case MarkerKind::Execution:
    case MarkerKind::Completion: {
      Job &J = E.J.emplace();
      std::optional<std::uint32_t> Sock;
      if (!parseJobFields(C, J) || !(Sock = C.nextU32()))
        return fail("malformed " + std::string(Word) + " job fields");
      J.Socket = *Sock;
      break;
    }
    case MarkerKind::ReadS:
    case MarkerKind::Selection:
    case MarkerKind::Idling:
      break;
    }
    if (std::string_view Extra = C.next(); !Extra.empty())
      return fail("unexpected '" + std::string(Extra) + "' after the " +
                  std::string(Word) + " marker");
    return true;
  }

  void deliver(const MarkerEvent &E, Time Ts) {
    Sink.onMarker(E, Ts);
    if (Stats)
      ++Stats->Events;
  }

  /// The rest of an `end <EndTime>` line, then nothing but blank lines.
  bool finish(FieldCursor &C) {
    std::optional<std::uint64_t> End = C.nextU64();
    if (!End)
      return fail("malformed end time");
    if (std::string_view Extra = C.next(); !Extra.empty())
      return fail("unexpected '" + std::string(Extra) +
                  "' after the end time");
    std::string_view First;
    if (nextRecord(C, First))
      return fail("content after the end line");
    if (Stats)
      Stats->SawEnd = true;
    Sink.onEnd(*End);
    return true;
  }

  /// The rest of a `chunk <n>` line and its n event lines.
  bool readChunk(FieldCursor &C) {
    std::optional<std::uint64_t> Count = C.nextU64();
    if (!Count)
      return fail("malformed chunk header");
    if (std::string_view Extra = C.next(); !Extra.empty())
      return fail("unexpected '" + std::string(Extra) +
                  "' after the chunk size");
    if (*Count == 0)
      return fail("chunk header announces zero events (the writer "
                  "never emits empty chunks; torn or corrupted "
                  "header?)");

    Chunk.clear();
    Chunk.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(*Count, 1 << 20)));
    for (std::uint64_t I = 0; I < *Count; ++I) {
      if (!nextLineRaw())
        return fail("truncated chunk (expected " + std::to_string(*Count) +
                    " events, got " + std::to_string(I) + ")");
      // Chunk bodies are read verbatim: a blank line here is a torn
      // write blanking an event, and silently skipping it would
      // misattribute the damage to the next line's parse.
      FieldCursor Body(Line);
      std::string_view Stamp = Body.next();
      if (Stamp.empty())
        return fail("blank line inside a chunk body (event " +
                    std::to_string(I + 1) + " of " +
                    std::to_string(*Count) + "; torn write?)");
      auto &[E, Ts] = Chunk.emplace_back();
      if (!parseMarker(Stamp, Body, Ts, E))
        return false;
    }
    for (const auto &[E, Ts] : Chunk)
      deliver(E, Ts);
    if (Stats)
      ++Stats->Chunks;
    return true;
  }

  bool run(bool V2) {
    FieldCursor C{std::string_view()};
    std::string_view First;
    while (nextRecord(C, First)) {
      if (First == "end")
        return finish(C);
      if (V2) {
        if (First != "chunk")
          return fail("expected a chunk or end line, got '" +
                      std::string(First) + "'");
        if (!readChunk(C))
          return false;
        continue;
      }
      Time Ts = 0;
      MarkerEvent E;
      if (!parseMarker(First, C, Ts, E))
        return false;
      deliver(E, Ts);
    }
    return fail("missing end line");
  }
};

} // namespace

bool rprosa::readTraceStream(std::istream &In, TraceSink &Sink,
                             CheckResult *Diags, TraceStreamStats *Stats) {
  Reader R(In, Sink, Diags, Stats);
  bool HaveHeader = R.nextLineRaw();
  R.LineNo = 1;
  // Matched field by field: `refinedprosa-trace v1` or `... v2`.
  FieldCursor C(R.Line);
  bool IsTrace = HaveHeader && C.next() == "refinedprosa-trace";
  std::string_view Version = C.next();
  if (IsTrace && C.next().empty() && (Version == "v1" || Version == "v2"))
    return R.run(Version == "v2");
  return R.fail("missing or unknown header");
}

void rprosa::writeTraceStream(std::ostream &Out, const TimedTrace &TT,
                              std::size_t EventsPerChunk) {
  ChunkedTraceWriter W(Out, EventsPerChunk);
  replayTimedTrace(TT, W);
}

std::optional<TimedTrace> rprosa::readTimedTrace(std::istream &In,
                                                 CheckResult *Diags) {
  VectorSink V;
  if (!readTraceStream(In, V, Diags))
    return std::nullopt;
  return V.take();
}
