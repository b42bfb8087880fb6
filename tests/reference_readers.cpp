//===- tests/reference_readers.cpp ----------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The text readers as they were before the shared field cursor
/// (support/fields.h), kept verbatim as the oracle of
/// reader_equivalence_test. Only the enclosing namespace changed.
///
//===----------------------------------------------------------------------===//

#include "reference_readers.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

namespace rprosa::reference {

// --- trace/serialize.cpp: the marker-line parser ----------------------

namespace {

/// Decimal u64 with explicit overflow rejection — stoull would throw
/// (and a 21-digit timestamp would crash the "returns diagnostics
/// instead of crashing" contract).
std::optional<std::uint64_t> parseU64(const std::string &Tok) {
  if (Tok.empty())
    return std::nullopt;
  for (char C : Tok)
    if (C < '0' || C > '9')
      return std::nullopt;
  std::uint64_t V = 0;
  auto [Ptr, Ec] = std::from_chars(Tok.data(), Tok.data() + Tok.size(), V);
  if (Ec != std::errc() || Ptr != Tok.data() + Tok.size())
    return std::nullopt;
  return V;
}

/// Whitespace tokenizer over one line.
class LineTokens {
public:
  explicit LineTokens(const std::string &Line) : In(Line) {}

  std::optional<std::string> next() {
    std::string Tok;
    if (In >> Tok)
      return Tok;
    return std::nullopt;
  }

  std::optional<std::uint64_t> nextU64() {
    std::optional<std::string> Tok = next();
    if (!Tok)
      return std::nullopt;
    return parseU64(*Tok);
  }

private:
  std::istringstream In;
};

std::optional<Job> parseJobFields(LineTokens &T, bool WithSocket) {
  Job J;
  auto Id = T.nextU64();
  auto Msg = T.nextU64();
  auto Task = T.nextU64();
  auto ReadAt = T.nextU64();
  if (!Id || !Msg || !Task || !ReadAt)
    return std::nullopt;
  J.Id = *Id;
  J.Msg = *Msg;
  J.Task = static_cast<TaskId>(*Task);
  J.ReadAt = *ReadAt;
  if (WithSocket) {
    auto Sock = T.nextU64();
    if (!Sock)
      return std::nullopt;
    J.Socket = static_cast<SocketId>(*Sock);
  }
  return J;
}

bool lineFail(std::string *Why, std::string Message) {
  if (Why)
    *Why = std::move(Message);
  return false;
}

} // namespace

bool parseMarkerLine(const std::string &Line, Time &Ts, MarkerEvent &E,
                     std::string *Why) {
  LineTokens T(Line);
  std::optional<std::string> First = T.next();
  if (!First)
    return lineFail(Why, "expected a timestamp");

  std::optional<std::uint64_t> Stamp = parseU64(*First);
  if (!Stamp)
    return lineFail(Why, "expected a timestamp");
  Ts = *Stamp;

  std::optional<std::string> Kind = T.next();
  if (!Kind)
    return lineFail(Why, "missing marker kind");

  if (*Kind == "ReadS") {
    E = MarkerEvent::readS();
  } else if (*Kind == "ReadE") {
    auto Sock = T.nextU64();
    std::optional<std::string> Status = T.next();
    if (!Sock || !Status)
      return lineFail(Why, "malformed ReadE");
    if (*Status == "ok") {
      std::optional<Job> J = parseJobFields(T, /*WithSocket=*/false);
      if (!J)
        return lineFail(Why, "malformed ReadE job fields");
      J->Socket = static_cast<SocketId>(*Sock);
      E = MarkerEvent::readE(static_cast<SocketId>(*Sock), *J);
    } else if (*Status == "fail") {
      E = MarkerEvent::readE(static_cast<SocketId>(*Sock), std::nullopt);
    } else {
      return lineFail(Why, "ReadE status must be ok/fail");
    }
  } else if (*Kind == "Selection") {
    E = MarkerEvent::selection();
  } else if (*Kind == "Idling") {
    E = MarkerEvent::idling();
  } else if (*Kind == "Dispatch" || *Kind == "Execution" ||
             *Kind == "Completion") {
    std::optional<Job> J = parseJobFields(T, /*WithSocket=*/true);
    if (!J)
      return lineFail(Why, "malformed " + *Kind + " job fields");
    if (*Kind == "Dispatch")
      E = MarkerEvent::dispatch(*J);
    else if (*Kind == "Execution")
      E = MarkerEvent::execution(*J);
    else
      E = MarkerEvent::completion(*J);
  } else {
    return lineFail(Why, "unknown marker kind '" + *Kind + "'");
  }
  return true;
}


// --- trace/chunked_io.cpp: the v1/v2 stream reader ---------------------

namespace {

/// First whitespace-separated token of \p Line and the rest after it.
std::pair<std::string, std::string> splitFirst(const std::string &Line) {
  std::size_t B = Line.find_first_not_of(" \t");
  if (B == std::string::npos)
    return {"", ""};
  std::size_t E = Line.find_first_of(" \t", B);
  if (E == std::string::npos)
    return {Line.substr(B), ""};
  std::size_t R = Line.find_first_not_of(" \t", E);
  return {Line.substr(B, E - B),
          R == std::string::npos ? "" : Line.substr(R)};
}

std::optional<std::uint64_t> tokU64(const std::string &Tok) {
  if (Tok.empty())
    return std::nullopt;
  for (char C : Tok)
    if (C < '0' || C > '9')
      return std::nullopt;
  std::uint64_t V = 0;
  auto [Ptr, Ec] = std::from_chars(Tok.data(), Tok.data() + Tok.size(), V);
  if (Ec != std::errc() || Ptr != Tok.data() + Tok.size())
    return std::nullopt;
  return V;
}

struct Reader {
  std::istream &In;
  TraceSink &Sink;
  CheckResult *Diags;
  TraceStreamStats *Stats;
  std::size_t LineNo = 0;

  bool fail(const std::string &Why) {
    if (Diags)
      Diags->addFailure("trace parse error at line " +
                        std::to_string(LineNo) + ": " + Why);
    return false;
  }

  /// Next non-empty line; false at end of stream. Only valid *between*
  /// records: inside a chunk body every line is an event, so blank
  /// lines must be diagnosed, not skipped (nextLineRaw).
  bool nextLine(std::string &Line) {
    while (std::getline(In, Line)) {
      ++LineNo;
      if (!Line.empty() &&
          Line.find_first_not_of(" \t\r") != std::string::npos)
        return true;
    }
    return false;
  }

  /// Next line verbatim (chunk bodies); false at end of stream.
  bool nextLineRaw(std::string &Line) {
    if (!std::getline(In, Line))
      return false;
    ++LineNo;
    return true;
  }

  void sawEvent() {
    if (Stats)
      ++Stats->Events;
  }

  bool finish(Time EndTime) {
    std::string Line;
    if (nextLine(Line))
      return fail("content after the end line");
    if (Stats)
      Stats->SawEnd = true;
    Sink.onEnd(EndTime);
    return true;
  }

  bool runV1() {
    std::string Line;
    while (nextLine(Line)) {
      auto [First, Rest] = splitFirst(Line);
      if (First == "end") {
        auto End = tokU64(splitFirst(Rest).first);
        if (!End)
          return fail("malformed end time");
        return finish(*End);
      }
      Time Ts = 0;
      MarkerEvent E;
      std::string Why;
      if (!parseMarkerLine(Line, Ts, E, &Why))
        return fail(Why);
      Sink.onMarker(E, Ts);
      sawEvent();
    }
    return fail("missing end line");
  }

  bool runV2() {
    std::string Line;
    // Parsed-but-undelivered events of the chunk in flight: delivery
    // happens only once the whole chunk parsed (no partial chunks).
    std::vector<std::pair<MarkerEvent, Time>> Chunk;
    while (nextLine(Line)) {
      auto [First, Rest] = splitFirst(Line);
      if (First == "end") {
        auto End = tokU64(splitFirst(Rest).first);
        if (!End)
          return fail("malformed end time");
        return finish(*End);
      }
      if (First != "chunk")
        return fail("expected a chunk or end line, got '" + First + "'");
      auto Count = tokU64(splitFirst(Rest).first);
      if (!Count)
        return fail("malformed chunk header");
      if (*Count == 0)
        return fail("chunk header announces zero events (the writer "
                    "never emits empty chunks; torn or corrupted "
                    "header?)");

      Chunk.clear();
      Chunk.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(*Count, 1 << 20)));
      for (std::uint64_t I = 0; I < *Count; ++I) {
        // Chunk bodies are read verbatim: a blank line here is a torn
        // write blanking an event, and silently skipping it would
        // misattribute the damage to the next line's parse.
        if (!nextLineRaw(Line))
          return fail("truncated chunk (expected " +
                      std::to_string(*Count) + " events, got " +
                      std::to_string(I) + ")");
        if (Line.find_first_not_of(" \t\r") == std::string::npos)
          return fail("blank line inside a chunk body (event " +
                      std::to_string(I + 1) + " of " +
                      std::to_string(*Count) + "; torn write?)");
        Time Ts = 0;
        MarkerEvent E;
        std::string Why;
        if (!parseMarkerLine(Line, Ts, E, &Why))
          return fail(Why);
        Chunk.emplace_back(std::move(E), Ts);
      }
      for (const auto &[E, Ts] : Chunk) {
        Sink.onMarker(E, Ts);
        sawEvent();
      }
      if (Stats)
        ++Stats->Chunks;
    }
    return fail("missing end line");
  }
};

} // namespace

bool readTraceStream(std::istream &In, TraceSink &Sink,
                             CheckResult *Diags, TraceStreamStats *Stats) {
  Reader R{In, Sink, Diags, Stats};
  std::string Header;
  if (!std::getline(In, Header)) {
    R.LineNo = 1;
    return R.fail("missing or unknown header");
  }
  R.LineNo = 1;
  if (!Header.empty() && Header.back() == '\r')
    Header.pop_back();
  if (Header == "refinedprosa-trace v2")
    return R.runV2();
  if (Header == "refinedprosa-trace v1")
    return R.runV1();
  return R.fail("missing or unknown header");
}


// --- core/time.cpp: time literals -----------------------------------

std::optional<Duration> parseTimeLiteral(const std::string &Text) {
  if (Text.empty())
    return std::nullopt;
  std::size_t Pos = 0;
  while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
    ++Pos;
  if (Pos == 0 || Pos > 19)
    return std::nullopt;
  Duration Num = std::stoull(Text.substr(0, Pos));
  std::string Suffix = Text.substr(Pos);
  if (Suffix.empty() || Suffix == "ns")
    return Num;
  if (Suffix == "us")
    return satMul(Num, TickUs);
  if (Suffix == "ms")
    return satMul(Num, TickMs);
  if (Suffix == "s")
    return satMul(Num, TickSec);
  return std::nullopt;
}

// --- sim/arrival_log.cpp: the arrival-log reader -----------------------

namespace {

/// A plain unsigned decimal field: digits only, no sign, no overflow.
std::optional<std::uint64_t> parseDecimal(const std::string &Tok) {
  std::uint64_t V = 0;
  auto [Ptr, Ec] = std::from_chars(Tok.data(), Tok.data() + Tok.size(), V);
  if (Ec != std::errc() || Ptr != Tok.data() + Tok.size())
    return std::nullopt;
  return V;
}

} // namespace

std::optional<ArrivalSequence>
parseArrivalLog(const std::string &Text, std::uint32_t NumSockets,
                        std::size_t NumTasks, CheckResult *Diags) {
  auto Fail = [&](std::size_t LineNo, const std::string &Why)
      -> std::optional<ArrivalSequence> {
    if (Diags)
      Diags->addFailure("arrival log error at line " +
                        std::to_string(LineNo) + ": " + Why);
    return std::nullopt;
  };

  std::istringstream In(Text);
  std::string Line;
  std::size_t LineNo = 0;
  if (!std::getline(In, Line) || Line != "refinedprosa-arrivals v1")
    return Fail(1, "missing or unknown header");
  ++LineNo;

  ArrivalSequence Arr(NumSockets);
  while (std::getline(In, Line)) {
    ++LineNo;
    std::size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.resize(Hash);
    std::istringstream Tok(Line);
    std::string TimeWord;
    if (!(Tok >> TimeWord))
      continue; // Blank or comment-only.
    std::optional<Duration> At = parseTimeLiteral(TimeWord);
    if (!At)
      return Fail(LineNo, "malformed time '" + TimeWord + "'");
    std::string SockWord, TaskWord, PayloadWord, Extra;
    if (!(Tok >> SockWord >> TaskWord))
      return Fail(LineNo, "expected '<time> <socket> <task> [payload]'");
    std::optional<std::uint64_t> Sock = parseDecimal(SockWord);
    if (!Sock)
      return Fail(LineNo, "malformed socket '" + SockWord + "'");
    if (*Sock >= NumSockets)
      return Fail(LineNo, "socket " + std::to_string(*Sock) +
                              " out of range (have " +
                              std::to_string(NumSockets) + ")");
    std::optional<std::uint64_t> Task = parseDecimal(TaskWord);
    if (!Task)
      return Fail(LineNo, "malformed task '" + TaskWord + "'");
    if (*Task >= NumTasks)
      return Fail(LineNo, "task " + std::to_string(*Task) +
                              " out of range (have " +
                              std::to_string(NumTasks) + ")");
    std::optional<std::uint64_t> Payload = 16;
    if (Tok >> PayloadWord) {
      Payload = parseDecimal(PayloadWord);
      if (!Payload)
        return Fail(LineNo, "malformed payload '" + PayloadWord + "'");
      if (*Payload > std::numeric_limits<std::uint32_t>::max())
        return Fail(LineNo, "payload " + std::to_string(*Payload) +
                                " exceeds 4294967295 bytes");
    }
    if (Tok >> Extra)
      return Fail(LineNo, "unexpected '" + Extra + "' after the payload");
    Arr.addArrival(*At, static_cast<SocketId>(*Sock),
                   static_cast<TaskId>(*Task),
                   static_cast<std::uint32_t>(*Payload));
  }
  return Arr;
}


// --- adequacy/spec_parser.cpp: the system-spec reader -----------------

namespace {

/// Tokenized view of one directive line.
class Tokens {
public:
  explicit Tokens(const std::string &Line) : In(Line) {}

  std::optional<std::string> word() {
    std::string W;
    if (In >> W)
      return W;
    return std::nullopt;
  }

  std::optional<Duration> time() {
    std::optional<std::string> W = word();
    return W ? parseTimeLiteral(*W) : std::nullopt;
  }

  std::optional<std::uint64_t> number() {
    std::optional<std::string> W = word();
    if (!W)
      return std::nullopt;
    for (char C : *W)
      if (C < '0' || C > '9')
        return std::nullopt;
    if (W->empty() || W->size() > 19)
      return std::nullopt;
    return std::stoull(*W);
  }

private:
  std::istringstream In;
};

/// Parses the "curve ..." tail of a task directive.
ArrivalCurvePtr parseCurve(Tokens &T, std::string &Err) {
  std::optional<std::string> Kind = T.word();
  if (!Kind) {
    Err = "missing curve kind";
    return nullptr;
  }
  if (*Kind == "periodic") {
    std::optional<Duration> Period = T.time();
    if (!Period || *Period == 0) {
      Err = "periodic curve needs a positive period";
      return nullptr;
    }
    return std::make_shared<PeriodicCurve>(*Period);
  }
  if (*Kind == "bucket") {
    std::optional<std::uint64_t> Burst = T.number();
    std::optional<Duration> Rate = T.time();
    if (!Burst || *Burst == 0 || !Rate || *Rate == 0) {
      Err = "bucket curve needs a positive burst and rate";
      return nullptr;
    }
    return std::make_shared<LeakyBucketCurve>(*Burst, *Rate);
  }
  if (*Kind == "periodic-jitter") {
    std::optional<Duration> Period = T.time();
    std::optional<Duration> Jit = T.time();
    if (!Period || *Period == 0 || !Jit) {
      Err = "periodic-jitter curve needs a period and a jitter";
      return nullptr;
    }
    return std::make_shared<PeriodicJitterCurve>(*Period, *Jit);
  }
  Err = "unknown curve kind '" + *Kind + "'";
  return nullptr;
}

} // namespace

std::optional<SystemSpec> parseSystemSpec(const std::string &Text,
                                                  CheckResult *Diags) {
  auto Fail = [&](std::size_t LineNo,
                  const std::string &Why) -> std::optional<SystemSpec> {
    if (Diags)
      Diags->addFailure("spec error at line " + std::to_string(LineNo) +
                        ": " + Why);
    return std::nullopt;
  };

  SystemSpec Spec;
  bool SawWcets = false;

  std::istringstream In(Text);
  std::string Line;
  std::size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    std::size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.resize(Hash);
    Tokens T(Line);
    std::optional<std::string> Directive = T.word();
    if (!Directive)
      continue; // Blank / comment-only line.

    if (*Directive == "system") {
      std::optional<std::string> Name = T.word();
      if (!Name)
        return Fail(LineNo, "system needs a name");
      Spec.Name = *Name;
    } else if (*Directive == "sockets") {
      std::optional<std::uint64_t> N = T.number();
      if (!N || *N == 0 || *N > 4096)
        return Fail(LineNo, "sockets needs a count in [1, 4096]");
      Spec.Client.NumSockets = static_cast<std::uint32_t>(*N);
    } else if (*Directive == "policy") {
      std::optional<std::string> P = T.word();
      if (!P)
        return Fail(LineNo, "policy needs npfp|edf|fifo");
      if (*P == "npfp")
        Spec.Client.Policy = SchedPolicy::Npfp;
      else if (*P == "edf")
        Spec.Client.Policy = SchedPolicy::Edf;
      else if (*P == "fifo")
        Spec.Client.Policy = SchedPolicy::Fifo;
      else
        return Fail(LineNo, "unknown policy '" + *P + "'");
    } else if (*Directive == "wcets") {
      // Key-value pairs: fr/sr/sel/disp/compl/idle.
      while (std::optional<std::string> Key = T.word()) {
        std::optional<Duration> V = T.time();
        if (!V)
          return Fail(LineNo, "wcets: missing value for '" + *Key + "'");
        if (*Key == "fr")
          Spec.Client.Wcets.FailedRead = *V;
        else if (*Key == "sr")
          Spec.Client.Wcets.SuccessfulRead = *V;
        else if (*Key == "sel")
          Spec.Client.Wcets.Selection = *V;
        else if (*Key == "disp")
          Spec.Client.Wcets.Dispatch = *V;
        else if (*Key == "compl")
          Spec.Client.Wcets.Completion = *V;
        else if (*Key == "idle")
          Spec.Client.Wcets.Idling = *V;
        else
          return Fail(LineNo, "wcets: unknown key '" + *Key + "'");
      }
      SawWcets = true;
    } else if (*Directive == "task") {
      std::optional<std::string> Name = T.word();
      if (!Name)
        return Fail(LineNo, "task needs a name");
      Duration Wcet = 0, Deadline = 0;
      Priority Prio = 0;
      ArrivalCurvePtr Curve;
      while (std::optional<std::string> Key = T.word()) {
        if (*Key == "wcet") {
          std::optional<Duration> V = T.time();
          if (!V)
            return Fail(LineNo, "task: malformed wcet");
          Wcet = *V;
        } else if (*Key == "prio") {
          std::optional<std::uint64_t> V = T.number();
          if (!V)
            return Fail(LineNo, "task: malformed prio");
          Prio = static_cast<Priority>(*V);
        } else if (*Key == "deadline") {
          std::optional<Duration> V = T.time();
          if (!V)
            return Fail(LineNo, "task: malformed deadline");
          Deadline = *V;
        } else if (*Key == "curve") {
          std::string Err;
          Curve = parseCurve(T, Err);
          if (!Curve)
            return Fail(LineNo, "task: " + Err);
        } else {
          return Fail(LineNo, "task: unknown key '" + *Key + "'");
        }
      }
      if (Wcet == 0)
        return Fail(LineNo, "task '" + *Name + "' needs a positive wcet");
      if (!Curve)
        return Fail(LineNo, "task '" + *Name + "' needs a curve");
      Spec.Client.Tasks.addTask(*Name, Wcet, Prio, std::move(Curve),
                                Deadline);
    } else {
      return Fail(LineNo, "unknown directive '" + *Directive + "'");
    }
  }

  if (!SawWcets)
    return Fail(LineNo, "missing 'wcets' directive");
  if (Spec.Client.Tasks.empty())
    return Fail(LineNo, "no tasks declared");
  return Spec;
}

} // namespace rprosa::reference
