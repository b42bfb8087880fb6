//===- adequacy/spec_parser.cpp -------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "adequacy/spec_parser.h"

#include "support/fields.h"

#include <memory>

using namespace rprosa;

std::optional<std::uint32_t>
rprosa::parseSocketCount(std::string_view Text) {
  std::optional<std::uint64_t> N = parseU64(Text);
  if (!N || *N == 0 || *N > MaxSockets)
    return std::nullopt;
  return static_cast<std::uint32_t>(*N);
}

namespace {

/// Parses the "curve ..." tail of a task directive.
ArrivalCurvePtr parseCurve(FieldCursor &C, std::string &Err) {
  std::string_view Kind = C.next();
  if (Kind.empty()) {
    Err = "missing curve kind";
    return nullptr;
  }
  if (Kind == "periodic") {
    std::optional<Duration> Period = parseTimeLiteral(C.next());
    if (!Period || *Period == 0) {
      Err = "periodic curve needs a positive period";
      return nullptr;
    }
    return std::make_shared<PeriodicCurve>(*Period);
  }
  if (Kind == "bucket") {
    std::optional<std::uint64_t> Burst = C.nextU64();
    std::optional<Duration> Rate = parseTimeLiteral(C.next());
    if (!Burst || *Burst == 0 || !Rate || *Rate == 0) {
      Err = "bucket curve needs a positive burst and rate";
      return nullptr;
    }
    return std::make_shared<LeakyBucketCurve>(*Burst, *Rate);
  }
  if (Kind == "periodic-jitter") {
    std::optional<Duration> Period = parseTimeLiteral(C.next());
    std::optional<Duration> Jit = parseTimeLiteral(C.next());
    if (!Period || *Period == 0 || !Jit) {
      Err = "periodic-jitter curve needs a period and a jitter";
      return nullptr;
    }
    return std::make_shared<PeriodicJitterCurve>(*Period, *Jit);
  }
  Err = "unknown curve kind '" + std::string(Kind) + "'";
  return nullptr;
}

} // namespace

std::optional<SystemSpec> rprosa::parseSystemSpec(const std::string &Text,
                                                  CheckResult *Diags) {
  std::size_t LineNo = 0;
  auto Fail = [&](const std::string &Why) -> std::optional<SystemSpec> {
    if (Diags)
      Diags->addFailure("spec error at line " + std::to_string(LineNo) +
                        ": " + Why);
    return std::nullopt;
  };
  // A directive whose last field was read must end there.
  auto Unexpected = [&](std::string_view Extra, const char *After) {
    return Fail("unexpected '" + std::string(Extra) + "' after the " +
                After);
  };

  SystemSpec Spec;
  bool SawWcets = false;

  std::string_view Rest = Text, Line;
  while (nextLine(Rest, Line)) {
    ++LineNo;
    FieldCursor C(Line.substr(0, Line.find('#')));
    std::string_view Directive = C.next();
    if (Directive.empty())
      continue; // Blank / comment-only line.

    if (Directive == "system") {
      std::string_view Name = C.next();
      if (Name.empty())
        return Fail("system needs a name");
      if (std::string_view Extra = C.next(); !Extra.empty())
        return Unexpected(Extra, "system name");
      Spec.Name = Name;
    } else if (Directive == "sockets") {
      std::optional<std::uint32_t> N = parseSocketCount(C.next());
      if (!N)
        return Fail("sockets needs a count in [1, 4096]");
      if (std::string_view Extra = C.next(); !Extra.empty())
        return Unexpected(Extra, "socket count");
      Spec.Client.NumSockets = *N;
    } else if (Directive == "policy") {
      std::string_view P = C.next();
      if (P.empty())
        return Fail("policy needs npfp|edf|fifo");
      if (P == "npfp")
        Spec.Client.Policy = SchedPolicy::Npfp;
      else if (P == "edf")
        Spec.Client.Policy = SchedPolicy::Edf;
      else if (P == "fifo")
        Spec.Client.Policy = SchedPolicy::Fifo;
      else
        return Fail("unknown policy '" + std::string(P) + "'");
      if (std::string_view Extra = C.next(); !Extra.empty())
        return Unexpected(Extra, "policy");
    } else if (Directive == "wcets") {
      // Key-value pairs: fr/sr/sel/disp/compl/idle.
      for (std::string_view Key = C.next(); !Key.empty(); Key = C.next()) {
        std::optional<Duration> V = parseTimeLiteral(C.next());
        if (!V)
          return Fail("wcets: missing value for '" + std::string(Key) +
                      "'");
        if (Key == "fr")
          Spec.Client.Wcets.FailedRead = *V;
        else if (Key == "sr")
          Spec.Client.Wcets.SuccessfulRead = *V;
        else if (Key == "sel")
          Spec.Client.Wcets.Selection = *V;
        else if (Key == "disp")
          Spec.Client.Wcets.Dispatch = *V;
        else if (Key == "compl")
          Spec.Client.Wcets.Completion = *V;
        else if (Key == "idle")
          Spec.Client.Wcets.Idling = *V;
        else
          return Fail("wcets: unknown key '" + std::string(Key) + "'");
      }
      SawWcets = true;
    } else if (Directive == "task") {
      std::string Name(C.next());
      if (Name.empty())
        return Fail("task needs a name");
      Duration Wcet = 0, Deadline = 0;
      Priority Prio = 0;
      ArrivalCurvePtr Curve;
      for (std::string_view Key = C.next(); !Key.empty(); Key = C.next()) {
        if (Key == "wcet") {
          std::optional<Duration> V = parseTimeLiteral(C.next());
          if (!V)
            return Fail("task: malformed wcet");
          Wcet = *V;
        } else if (Key == "prio") {
          std::optional<std::uint32_t> V = C.nextU32();
          if (!V)
            return Fail("task: malformed prio");
          Prio = *V;
        } else if (Key == "deadline") {
          std::optional<Duration> V = parseTimeLiteral(C.next());
          if (!V)
            return Fail("task: malformed deadline");
          Deadline = *V;
        } else if (Key == "curve") {
          std::string Err;
          Curve = parseCurve(C, Err);
          if (!Curve)
            return Fail("task: " + Err);
        } else {
          return Fail("task: unknown key '" + std::string(Key) + "'");
        }
      }
      if (Wcet == 0)
        return Fail("task '" + Name + "' needs a positive wcet");
      if (!Curve)
        return Fail("task '" + Name + "' needs a curve");
      Spec.Client.Tasks.addTask(Name, Wcet, Prio, std::move(Curve),
                                Deadline);
    } else {
      return Fail("unknown directive '" + std::string(Directive) + "'");
    }
  }

  if (!SawWcets)
    return Fail("missing 'wcets' directive");
  if (Spec.Client.Tasks.empty())
    return Fail("no tasks declared");
  return Spec;
}
