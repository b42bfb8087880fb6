//===- tests/reader_equivalence_test.cpp - Old vs new text readers --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// A seeded differential suite for the text readers. Each format's seed
/// input (a simulator-written v1 and v2 trace, docs/example.spec and
/// docs/example_arrivals.log) is mutated thousands of times, and the
/// library reader and the pre-cursor reference (reference_readers.h)
/// must agree on accept/reject, the delivered events or parsed value,
/// TraceStreamStats and the diagnostic text, line numbers included.
/// The exceptions are the divergences DESIGN.md §9 names, and there the
/// library must follow the pinned rule:
///
///  - CR separates fields: a mutant reads like its twin with every CR
///    turned into a space;
///  - \v and \f are ordinary bytes: a mutant reads like its twin with
///    them swapped for two bytes it does not contain;
///  - a header is matched field by field: a mutant reads like its twin
///    with the canonical header line;
///  - a field after a line's last one is an error at that line;
///  - a 32-bit field (trace socket and task, spec prio) rejects values
///    above 2^32 - 1;
///  - a number takes any digit count (the old readers capped spec
///    numbers and time literals at 19 characters);
///  - a time literal whose scaled value reaches TimeInfinity is
///    rejected.
///
/// Every v2 read is also held to the crash-consistency contract: whole
/// chunks only, and onEnd exactly on success. Every v1 and v2 mutant is
/// read a second time through a stream that returns 1-7 bytes at a
/// time, and must read exactly as from a string. RPROSA_FUZZ_SEED
/// replays a run; a failure prints the mutant.
///
//===----------------------------------------------------------------------===//

#include "reference_readers.h"

#include "adequacy/spec_parser.h"
#include "sim/arrival_log.h"
#include "sim/workload.h"
#include "support/rng.h"
#include "trace/chunked_io.h"
#include "trace/serialize.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

constexpr int MutantsPerFormat = 2000;
constexpr std::uint64_t U32Max = std::numeric_limits<std::uint32_t>::max();

//===----------------------------------------------------------------------===//
// Text helpers (independent of the library's cursor)
//===----------------------------------------------------------------------===//

/// The lines of \p Text as std::getline hands them out.
std::vector<std::string> linesOf(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

/// Line \p N (1-based) of \p Text, or "" past the end.
std::string lineAt(const std::string &Text, std::size_t N) {
  std::vector<std::string> Lines = linesOf(Text);
  return N >= 1 && N <= Lines.size() ? Lines[N - 1] : "";
}

bool isSep(char C) { return C == ' ' || C == '\t' || C == '\r'; }

/// The fields of \p Line under the pinned grammar.
std::vector<std::string> fieldsOf(const std::string &Line) {
  std::vector<std::string> Out;
  std::size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && isSep(Line[I]))
      ++I;
    std::size_t B = I;
    while (I < Line.size() && !isSep(Line[I]))
      ++I;
    if (I > B)
      Out.push_back(Line.substr(B, I - B));
  }
  return Out;
}

std::string field(const std::vector<std::string> &F, std::size_t I) {
  return I < F.size() ? F[I] : "";
}

std::string uncommented(const std::string &Line) {
  return Line.substr(0, Line.find('#'));
}

/// The value of a digit string; nullopt above 2^64 - 1.
std::optional<std::uint64_t> digitValue(const std::string &Digits) {
  std::uint64_t V = 0;
  for (char C : Digits)
    if (__builtin_mul_overflow(V, 10u, &V) ||
        __builtin_add_overflow(V, static_cast<unsigned>(C - '0'), &V))
      return std::nullopt;
  return V;
}

bool allDigits(const std::string &S) {
  return !S.empty() && S.find_first_not_of("0123456789") == std::string::npos;
}

/// A 32-bit slot holding a number above 2^32 - 1.
bool wide32(const std::string &Field) {
  std::optional<std::uint64_t> V = digitValue(Field);
  return allDigits(Field) && (!V || *V > U32Max);
}

/// The line has a digit run of 20 or more characters: a number the old
/// spec and time-literal parsers rejected by its width alone.
bool hasWideDigits(const std::string &Line) {
  std::size_t Run = 0;
  for (char C : Line) {
    Run = C >= '0' && C <= '9' ? Run + 1 : 0;
    if (Run >= 20)
      return true;
  }
  return false;
}

/// \p Field is a time literal whose scaled value reaches TimeInfinity.
bool timeReachesInfinity(const std::string &Field) {
  std::size_t D = Field.find_first_not_of("0123456789");
  std::string Digits = Field.substr(0, D);
  std::string Unit = D == std::string::npos ? "" : Field.substr(D);
  Duration Scale = Unit.empty() || Unit == "ns" ? TickNs
                   : Unit == "us"               ? TickUs
                   : Unit == "ms"               ? TickMs
                   : Unit == "s"                ? TickSec
                                                : 0;
  std::optional<std::uint64_t> V = digitValue(Digits);
  Duration Scaled = 0;
  return !Digits.empty() && Scale != 0 &&
         (!V || __builtin_mul_overflow(*V, Scale, &Scaled) ||
          Scaled == TimeInfinity);
}

bool anyField(const std::string &Line,
              const std::function<bool(const std::string &)> &P) {
  for (const std::string &F : fieldsOf(Line))
    if (P(F))
      return true;
  return false;
}

std::string replaceChar(std::string S, char From, char To) {
  for (char &C : S)
    if (C == From)
      C = To;
  return S;
}

/// Makes control bytes visible in a failure message.
std::string escaped(const std::string &S) {
  std::string Out;
  for (unsigned char C : S) {
    if (C == '\n') {
      Out += "\\n\n";
    } else if (C < 0x20 || C >= 0x7f) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\x%02x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

//===----------------------------------------------------------------------===//
// The mutator
//===----------------------------------------------------------------------===//

/// Seeded mutations over a text: byte-level, line-level and
/// token-level damage, CRLF and widened digits.
class Mutator {
public:
  explicit Mutator(std::uint64_t Seed) : Rng(Seed) {}

  std::string mutate(std::string Text) {
    for (std::uint64_t K = Rng.nextInRange(1, 3); K > 0; --K)
      Text = once(std::move(Text));
    return Text;
  }

private:
  std::size_t pick(std::size_t N) {
    return N == 0 ? 0 : static_cast<std::size_t>(Rng.nextInRange(0, N - 1));
  }

  template <class T, std::size_t N> const T &pick(const T (&A)[N]) {
    return A[pick(N)];
  }

  static std::string join(const std::vector<std::string> &L, bool Trailing) {
    std::string Out;
    for (std::size_t I = 0; I < L.size(); ++I) {
      Out += L[I];
      if (I + 1 < L.size() || Trailing)
        Out += '\n';
    }
    return Out;
  }

  std::string once(std::string T) {
    static const char Bytes[] = {' ',  '\t', '\r', '\v', '\f', '\n',
                                 '0',  '9',  '#',  '-',  '+',  'x'};
    static const char *const Tokens[] = {
        "0",          "1",           "7",
        "4294967295", "4294967296",  "18446744073709551615",
        "18446744073709551616",      "00000000000000000000042",
        "end",        "chunk",       "ReadS",
        "ReadE",      "ok",          "fail",
        "Dispatch",   "Idling",      "#",
        "2ms",        "9999999999999999999s",
        "18446744073709551615ns",    "prio",
        "wcet",       "curve",       "periodic",
        "x"};
    static const char *const WideNumbers[] = {
        "4294967295",           "4294967296",           "4294967297",
        "9999999999999999999",  "18446744073709551614", "18446744073709551615",
        "18446744073709551616", "99999999999999999999"};

    // Line-level operators split and rejoin, keeping a final '\n'.
    bool Trailing = !T.empty() && T.back() == '\n';
    std::vector<std::string> L = linesOf(T);
    switch (Rng.nextInRange(0, 11)) {
    case 0: // Bit flip.
      if (!T.empty())
        T[pick(T.size())] ^= static_cast<char>(1u << Rng.nextInRange(0, 7));
      return T;
    case 1: // Byte insertion.
      T.insert(T.begin() + static_cast<std::ptrdiff_t>(pick(T.size() + 1)),
               Rng.nextBernoulli(1, 4) ? static_cast<char>(Rng.next())
                                       : pick(Bytes));
      return T;
    case 2: // Byte deletion.
      if (!T.empty())
        T.erase(pick(T.size()), 1);
      return T;
    case 3: // Dropped line.
      if (!L.empty())
        L.erase(L.begin() + static_cast<std::ptrdiff_t>(pick(L.size())));
      return join(L, Trailing);
    case 4: // Duplicated line.
      if (!L.empty()) {
        std::size_t I = pick(L.size());
        L.insert(L.begin() + static_cast<std::ptrdiff_t>(I), L[I]);
      }
      return join(L, Trailing);
    case 5: // Spliced line: a copy of one line lands somewhere else.
      if (!L.empty()) {
        std::string Copy = L[pick(L.size())];
        L.insert(L.begin() + static_cast<std::ptrdiff_t>(pick(L.size() + 1)),
                 Copy);
      }
      return join(L, Trailing);
    case 6: // Joined lines: one newline lost.
      if (L.size() >= 2) {
        std::size_t I = pick(L.size() - 1);
        L[I] += (Rng.nextBernoulli(1, 2) ? " " : "") + L[I + 1];
        L.erase(L.begin() + static_cast<std::ptrdiff_t>(I + 1));
      }
      return join(L, Trailing);
    case 7: // Truncation.
      T.resize(pick(T.size() + 1));
      return T;
    case 8: { // Token insertion at a field boundary.
      if (L.empty())
        return T;
      std::string &Line = L[pick(L.size())];
      std::vector<std::size_t> Cuts = {0, Line.size()};
      for (std::size_t I = 0; I < Line.size(); ++I)
        if (isSep(Line[I]))
          Cuts.push_back(I);
      std::size_t At = Cuts[pick(Cuts.size())];
      std::string Tok = pick(Tokens);
      Line.insert(At, At == 0 ? Tok + " " : " " + Tok);
      return join(L, Trailing);
    }
    case 9: { // Token deletion.
      if (L.empty())
        return T;
      std::string &Line = L[pick(L.size())];
      std::vector<std::pair<std::size_t, std::size_t>> Spans;
      for (std::size_t I = 0; I < Line.size();) {
        std::size_t B = I;
        while (I < Line.size() && isSep(Line[I]))
          ++I;
        while (I < Line.size() && !isSep(Line[I]))
          ++I;
        Spans.emplace_back(B, I - B);
      }
      if (!Spans.empty()) {
        auto [B, N] = Spans[pick(Spans.size())];
        Line.erase(B, N);
      }
      return join(L, Trailing);
    }
    case 10: // CRLF: every line, or one.
      if (Rng.nextBernoulli(1, 2)) {
        for (std::string &Line : L)
          Line += '\r';
      } else if (!L.empty()) {
        L[pick(L.size())] += '\r';
      }
      return join(L, Trailing);
    default: { // Widened digits: zero-padded, or a boundary value.
      std::vector<std::pair<std::size_t, std::size_t>> Runs;
      for (std::size_t I = 0; I < T.size();) {
        if (T[I] < '0' || T[I] > '9') {
          ++I;
          continue;
        }
        std::size_t B = I;
        while (I < T.size() && T[I] >= '0' && T[I] <= '9')
          ++I;
        Runs.emplace_back(B, I - B);
      }
      if (Runs.empty())
        return T;
      auto [B, N] = Runs[pick(Runs.size())];
      if (Rng.nextBernoulli(1, 2))
        T.insert(B, std::string(20 - std::min<std::size_t>(N, 19) +
                                    pick(5),
                                '0'));
      else
        T.replace(B, N, pick(WideNumbers));
      return T;
    }
    }
  }

  SplitMix64 Rng;
};

//===----------------------------------------------------------------------===//
// Outcomes
//===----------------------------------------------------------------------===//

/// Everything a read shows the outside.
struct Outcome {
  bool Ok = false;
  /// The delivered events (appendMarkerLine) or the parsed value.
  std::string Value;
  /// Trace reads: onEnd and the stats.
  bool Ended = false;
  Time End = 0;
  TraceStreamStats Stats;
  std::string Diag;

  /// The line the diagnostic names; 0 if none.
  std::size_t errorLine() const {
    std::size_t At = Diag.find("at line ");
    return At == std::string::npos
               ? 0
               : static_cast<std::size_t>(
                     std::stoull(Diag.substr(At + 8, 20)));
  }

  std::string render() const {
    return std::string(Ok ? "accept" : "reject") + "\n" + Value +
           "end=" + (Ended ? std::to_string(End) : "-") +
           " events=" + std::to_string(Stats.Events) +
           " chunks=" + std::to_string(Stats.Chunks) +
           " sawEnd=" + std::to_string(Stats.SawEnd) + "\n" + Diag;
  }
};

/// A sink that renders what it sees.
class RecordingSink final : public TraceSink {
public:
  explicit RecordingSink(Outcome &O) : O(O) {}
  void onMarker(const MarkerEvent &E, Time At) override {
    appendMarkerLine(O.Value, At, E);
  }
  void onEnd(Time EndTime) override {
    O.Ended = true;
    O.End = EndTime;
  }

private:
  Outcome &O;
};

using TraceReadFn = bool (*)(std::istream &, TraceSink &, CheckResult *,
                             TraceStreamStats *);

Outcome readTrace(TraceReadFn Read, std::istream &In) {
  Outcome O;
  RecordingSink Sink(O);
  CheckResult Diags;
  O.Ok = Read(In, Sink, &Diags, &O.Stats);
  O.Diag = Diags.describe();
  return O;
}

Outcome readTrace(TraceReadFn Read, const std::string &Text) {
  std::istringstream In(Text);
  return readTrace(Read, In);
}

std::string renderSpec(const SystemSpec &S) {
  const BasicActionWcets &W = S.Client.Wcets;
  std::string Out = "system " + S.Name + " sockets " +
                    std::to_string(S.Client.NumSockets) + " policy " +
                    toString(S.Client.Policy) + " wcets " +
                    std::to_string(W.FailedRead) + " " +
                    std::to_string(W.SuccessfulRead) + " " +
                    std::to_string(W.Selection) + " " +
                    std::to_string(W.Dispatch) + " " +
                    std::to_string(W.Completion) + " " +
                    std::to_string(W.Idling) + "\n";
  for (const Task &T : S.Client.Tasks.tasks())
    Out += "task " + T.Name + " " + std::to_string(T.Wcet) + " " +
           std::to_string(T.Prio) + " " + std::to_string(T.Deadline) + " " +
           T.Curve->describe() + "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// The comparison
//===----------------------------------------------------------------------===//

/// How many mutants met each rule (a mutant may meet several).
struct Tally {
  int Mutants = 0, Agreed = 0, Cr = 0, VtFf = 0, Header = 0, Trailing = 0,
      Wide32 = 0, WideDigits = 0, AtInfinity = 0;

  std::string describe() const {
    return std::to_string(Mutants) + " mutants, " + std::to_string(Agreed) +
           " read alike after the character rules; CR " +
           std::to_string(Cr) + ", VT/FF " + std::to_string(VtFf) +
           ", header " + std::to_string(Header) + ", trailing field " +
           std::to_string(Trailing) + ", 32-bit field " +
           std::to_string(Wide32) + ", digit count " +
           std::to_string(WideDigits) + ", time literal at infinity " +
           std::to_string(AtInfinity);
  }
};

/// One text format: its two readers, its header and the rule check for
/// a difference that survives the character and header rules.
struct Format {
  const char *Name;
  std::function<Outcome(const std::string &)> New, Old;
  /// The canonical header lines ("" = the format has no header).
  std::vector<std::string> Headers;
  /// True iff the difference between \p Old and \p New on \p Text is
  /// one the pinned rules allow; counts the rule in \p T.
  std::function<bool(const std::string &Text, const Outcome &Old,
                     const Outcome &New, Tally &T)>
      Explain;
  /// Contract checks on every library read of a mutant (may be empty).
  std::function<void(const std::string &Text, const Outcome &New)>
      Contract = {};
};

/// Checks one mutant; false (after reporting) if it broke a rule.
bool checkMutant(const Format &F, const std::string &Mutant, Tally &T) {
  ++T.Mutants;
  Outcome New = F.New(Mutant);
  if (F.Contract)
    F.Contract(Mutant, New);
  std::string Text = Mutant;
  // Each rule swaps Text for a twin the library must read the same
  // way, up to \p Unmap on the bytes the twin swapped in.
  auto Twin = [&](const std::string &Next, const char *Rule,
                  const std::function<std::string(std::string)> &Unmap) {
    Outcome N = F.New(Next);
    Outcome Back = N;
    Back.Value = Unmap(Back.Value);
    Back.Diag = Unmap(Back.Diag);
    EXPECT_EQ(Back.render(), New.render())
        << F.Name << ": rule '" << Rule << "' broken on\n"
        << escaped(Mutant);
    bool Same = Back.render() == New.render();
    Text = Next;
    New = std::move(N);
    return Same;
  };
  auto Same = [](std::string S) { return S; };

  if (Text.find('\r') != std::string::npos) {
    ++T.Cr;
    if (!Twin(replaceChar(Text, '\r', ' '), "CR separates fields", Same))
      return false;
  }
  if (Text.find_first_of("\v\f") != std::string::npos) {
    // Two bytes the text lacks stand in for \v and \f.
    std::string Free;
    for (char C = 1; C < 0x20 && Free.size() < 2; ++C)
      if (std::string("\t\n\v\f\r").find(C) == std::string::npos &&
          Text.find(C) == std::string::npos)
        Free += C;
    if (Free.size() < 2) {
      ADD_FAILURE() << "no stand-in bytes left in\n" << escaped(Mutant);
      return false;
    }
    ++T.VtFf;
    if (!Twin(replaceChar(replaceChar(Text, '\v', Free[0]), '\f', Free[1]),
              "VT and FF are ordinary bytes", [&](std::string S) {
                return replaceChar(replaceChar(S, Free[0], '\v'), Free[1],
                                   '\f');
              }))
      return false;
  }
  if (!F.Headers.empty()) {
    std::string First = lineAt(Text, 1);
    for (const std::string &H : F.Headers) {
      if (First == H || fieldsOf(First) != fieldsOf(H))
        continue;
      ++T.Header;
      if (!Twin(H + Text.substr(First.size()), "headers match by field",
                Same))
        return false;
      break;
    }
  }

  Outcome Old = F.Old(Text);
  if (Old.render() == New.render()) {
    ++T.Agreed;
    return true;
  }
  bool Allowed = F.Explain(Text, Old, New, T);
  EXPECT_TRUE(Allowed) << F.Name << ": a difference outside the named "
                       << "divergences on\n"
                       << escaped(Text) << "\n--- reference ---\n"
                       << Old.render() << "\n--- library ---\n"
                       << New.render();
  return Allowed;
}

/// The new reader stopped at line L; the old one got at least as far.
bool oldGotAsFar(const Outcome &Old, const Outcome &New) {
  return Old.Ok || Old.errorLine() >= New.errorLine();
}

/// A marker, chunk or end line that the library rejected under the
/// trailing-field or the 32-bit rule.
bool explainTraceLine(const std::string &Text, const Outcome &Old,
                      const Outcome &New, Tally &T) {
  if (New.Ok || !oldGotAsFar(Old, New) ||
      Old.Value.compare(0, New.Value.size(), New.Value) != 0)
    return false;
  std::vector<std::string> F = fieldsOf(lineAt(Text, New.errorLine()));
  std::string Kind = field(F, 1);
  std::size_t Last = 0;
  if (field(F, 0) == "end" || field(F, 0) == "chunk")
    Last = 2;
  else if (Kind == "ReadS" || Kind == "Selection" || Kind == "Idling")
    Last = 2;
  else if (Kind == "ReadE")
    Last = field(F, 3) == "ok" ? 8 : 4;
  else if (Kind == "Dispatch" || Kind == "Execution" || Kind == "Completion")
    Last = 7;
  if (Last && F.size() > Last &&
      New.Diag.find("unexpected '" + F[Last] + "' after the ") !=
          std::string::npos) {
    ++T.Trailing;
    return true;
  }
  bool Wide = Kind == "ReadE" ? wide32(field(F, 2)) ||
                                    (field(F, 3) == "ok" && wide32(field(F, 6)))
                              : wide32(field(F, 4)) || wide32(field(F, 6));
  if (Wide && New.Diag.find(": malformed ") != std::string::npos) {
    ++T.Wide32;
    return true;
  }
  return false;
}

/// The old spec or arrival-log reader rejected line \p L for a number
/// of 20 or more characters, which the library reads by value.
bool oldRejectedWidth(const std::string &Text, const Outcome &Old,
                      std::size_t L, Tally &T) {
  if (Old.Ok || Old.errorLine() > L ||
      !hasWideDigits(uncommented(lineAt(Text, Old.errorLine()))))
    return false;
  ++T.WideDigits;
  return true;
}

bool explainSpec(const std::string &Text, const Outcome &Old,
                 const Outcome &New, Tally &T) {
  if (New.Ok)
    return oldRejectedWidth(Text, Old, ~std::size_t(0), T);
  if (oldRejectedWidth(Text, Old, New.errorLine(), T))
    return true;
  if (!oldGotAsFar(Old, New))
    return false;
  std::string Line = uncommented(lineAt(Text, New.errorLine()));
  std::vector<std::string> F = fieldsOf(Line);
  std::string D = field(F, 0);
  if ((D == "system" || D == "sockets" || D == "policy") && F.size() > 2 &&
      New.Diag.find("unexpected '" + F[2] + "' after the ") !=
          std::string::npos) {
    ++T.Trailing;
    return true;
  }
  if (New.Diag.find("task: malformed prio") != std::string::npos) {
    for (std::size_t I = 0; I + 1 < F.size(); ++I)
      if (F[I] == "prio" && wide32(F[I + 1])) {
        ++T.Wide32;
        return true;
      }
  }
  if (anyField(Line, timeReachesInfinity)) {
    ++T.AtInfinity;
    return true;
  }
  return false;
}

bool explainArrivals(const std::string &Text, const Outcome &Old,
                     const Outcome &New, Tally &T) {
  if (New.Ok)
    return oldRejectedWidth(Text, Old, ~std::size_t(0), T);
  if (oldRejectedWidth(Text, Old, New.errorLine(), T))
    return true;
  std::string Word = field(
      fieldsOf(uncommented(lineAt(Text, New.errorLine()))), 0);
  if (oldGotAsFar(Old, New) && timeReachesInfinity(Word) &&
      New.Diag.find("malformed time '" + Word + "'") != std::string::npos) {
    ++T.AtInfinity;
    return true;
  }
  return false;
}

/// The v2 crash-consistency contract on one library read: delivered
/// events come in whole chunks, the failing chunk delivers nothing, and
/// onEnd fires exactly on success.
void expectWholeChunks(const std::string &Text, const Outcome &New) {
  if (New.Ok)
    return;
  // The chunk framing under the pinned grammar: header lines and the
  // body sizes they announce, up to the first line that is neither.
  std::vector<std::string> L = linesOf(Text);
  std::vector<std::pair<std::size_t, std::uint64_t>> Chunks;
  for (std::size_t I = 1; I < L.size();) {
    std::vector<std::string> F = fieldsOf(L[I]);
    if (F.empty()) {
      ++I;
      continue;
    }
    std::optional<std::uint64_t> N =
        F.size() == 2 && F[0] == "chunk" && allDigits(F[1])
            ? digitValue(F[1])
            : std::nullopt;
    if (!N || *N == 0 || *N > L.size())
      break;
    Chunks.emplace_back(I + 1, *N);
    I += 1 + *N;
  }
  ASSERT_LE(New.Stats.Chunks, Chunks.size()) << escaped(Text);
  std::uint64_t Whole = 0;
  for (std::size_t C = 0; C < New.Stats.Chunks; ++C)
    Whole += Chunks[C].second;
  EXPECT_EQ(New.Stats.Events, Whole) << escaped(Text);
  EXPECT_EQ(linesOf(New.Value).size(), Whole) << escaped(Text);
  if (New.Stats.Chunks > 0) {
    // At the end of the stream the diagnostic names the last line read.
    auto [Header, N] = Chunks[New.Stats.Chunks - 1];
    EXPECT_TRUE(New.errorLine() > Header + N ||
                New.Diag.find("missing end line") != std::string::npos)
        << "the failing line lies in a delivered chunk\n"
        << escaped(Text) << New.Diag;
  }
  if (New.Stats.Chunks < Chunks.size()) {
    auto [Header, N] = Chunks[New.Stats.Chunks];
    EXPECT_LE(New.errorLine(), Header + N)
        << "a chunk parsed in full was withheld\n"
        << escaped(Text);
  }
}

/// onEnd fires exactly on success.
void expectEndOnSuccess(const std::string &Text, const Outcome &New) {
  EXPECT_EQ(New.Ended, New.Ok) << escaped(Text);
  EXPECT_EQ(New.Stats.SawEnd, New.Ok) << escaped(Text);
}

/// The library reads \p Text through a stream that returns 1-7 bytes
/// at a time (counts drawn from \p Rng) exactly as from a string.
void expectShortReadsAlike(const std::string &Text, const Outcome &New,
                           SplitMix64 &Rng) {
  ShortReadBuf Buf(Text, Rng.next());
  std::istream In(&Buf);
  EXPECT_EQ(readTrace(readTraceStream, In).render(), New.render())
      << "short reads changed the read of\n"
      << escaped(Text);
}

/// Runs MutantsPerFormat mutants of \p Seed through \p F.
void runFormat(const Format &F, const std::string &Seed, std::uint64_t Salt) {
  std::uint64_t S = fuzzSeed(2026) ^ Salt;
  SCOPED_TRACE("replay with RPROSA_FUZZ_SEED=" +
               std::to_string(fuzzSeed(2026)));
  // The unmutated seed reads alike in both.
  Tally T;
  ASSERT_TRUE(F.New(Seed).Ok) << F.Name;
  ASSERT_TRUE(checkMutant(F, Seed, T));

  Mutator M(S);
  int Failures = 0;
  for (int I = 0; I < MutantsPerFormat && Failures < 5; ++I) {
    std::string Mutant = M.mutate(Seed);
    if (!checkMutant(F, Mutant, T))
      ++Failures;
  }
  std::printf("%s: %s\n", F.Name, T.describe().c_str());
  EXPECT_GE(T.Mutants, MutantsPerFormat + 1);
}

TimedTrace seedTrace() {
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 600;
  return runRossl(C, generateWorkload(C.Tasks, Spec), 1000);
}

Format traceFormat(const char *Name, bool V2) {
  return {Name,
          [](const std::string &S) { return readTrace(readTraceStream, S); },
          [](const std::string &S) {
            return readTrace(reference::readTraceStream, S);
          },
          {"refinedprosa-trace v1", "refinedprosa-trace v2"},
          explainTraceLine,
          [V2, Rng = std::make_shared<SplitMix64>(fuzzSeed(2026) ^ 0x5407)](
              const std::string &Text, const Outcome &New) {
            expectEndOnSuccess(Text, New);
            if (V2)
              expectWholeChunks(Text, New);
            expectShortReadsAlike(Text, New, *Rng);
          }};
}

} // namespace

TEST(ReaderEquivalence, V1Traces) {
  TimedTrace TT = seedTrace();
  ASSERT_GT(TT.size(), 50u);
  runFormat(traceFormat("v1 trace", /*V2=*/false), serializeTimedTrace(TT),
            0x7631);
}

TEST(ReaderEquivalence, V2Traces) {
  TimedTrace TT = seedTrace();
  std::ostringstream Out;
  writeTraceStream(Out, TT, /*EventsPerChunk=*/8);
  runFormat(traceFormat("v2 trace", /*V2=*/true), Out.str(), 0x7632);
}

TEST(ReaderEquivalence, SystemSpecs) {
  auto Read = [](auto Parse) {
    return [Parse](const std::string &Text) {
      Outcome O;
      CheckResult Diags;
      std::optional<SystemSpec> S = Parse(Text, &Diags);
      O.Ok = S.has_value();
      O.Value = S ? renderSpec(*S) : "";
      O.Diag = Diags.describe();
      return O;
    };
  };
  Format F{"spec",
           Read([](const std::string &T, CheckResult *D) {
             return parseSystemSpec(T, D);
           }),
           Read([](const std::string &T, CheckResult *D) {
             return reference::parseSystemSpec(T, D);
           }),
           {},
           explainSpec};
  runFormat(F, readFile(RPROSA_DOCS_DIR "/example.spec"), 0x5bec);
}

TEST(ReaderEquivalence, ArrivalLogs) {
  // docs/example.spec declares 2 sockets and 3 tasks.
  auto Read = [](auto Parse) {
    return [Parse](const std::string &Text) {
      Outcome O;
      CheckResult Diags;
      std::optional<ArrivalSequence> A = Parse(Text, &Diags);
      O.Ok = A.has_value();
      O.Value = A ? serializeArrivalLog(*A) : "";
      O.Diag = Diags.describe();
      return O;
    };
  };
  Format F{"arrival log",
           Read([](const std::string &T, CheckResult *D) {
             return parseArrivalLog(T, 2, 3, D);
           }),
           Read([](const std::string &T, CheckResult *D) {
             return reference::parseArrivalLog(T, 2, 3, D);
           }),
           {"refinedprosa-arrivals v1"},
           explainArrivals};
  runFormat(F, readFile(RPROSA_DOCS_DIR "/example_arrivals.log"), 0xa771);
}

TEST(ReaderEquivalence, TimeLiterals) {
  // Random digit strings of 1-25 characters with a unit or a bad one:
  // the parsers agree except on the two time-literal rules.
  SplitMix64 Rng(fuzzSeed(2026) ^ 0x71);
  static const char *const Units[] = {"", "ns", "us", "ms", "s", "x", "sec"};
  int Wide = 0, Infinite = 0;
  for (int I = 0; I < MutantsPerFormat; ++I) {
    std::string Lit;
    for (std::uint64_t N = Rng.nextInRange(1, 25); N > 0; --N)
      Lit += static_cast<char>(
          '0' + (Rng.nextBernoulli(1, 3) ? 9 : Rng.nextInRange(0, 9)));
    Lit += Units[Rng.nextInRange(0, 6)];
    std::optional<Duration> New = parseTimeLiteral(Lit);
    std::optional<Duration> Old = reference::parseTimeLiteral(Lit);
    if (New == Old)
      continue;
    if (timeReachesInfinity(Lit)) {
      EXPECT_FALSE(New.has_value()) << Lit;
      ++Infinite;
    } else {
      EXPECT_FALSE(Old.has_value()) << Lit;
      EXPECT_TRUE(hasWideDigits(Lit) && New.has_value()) << Lit;
      ++Wide;
    }
  }
  std::printf("time literals: %d literals, digit count %d, at infinity "
              "%d\n",
              MutantsPerFormat, Wide, Infinite);
}
