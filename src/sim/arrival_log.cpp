//===- sim/arrival_log.cpp ------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "sim/arrival_log.h"

#include "core/time.h"

#include <charconv>
#include <limits>
#include <sstream>

using namespace rprosa;

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
rprosa::parseArrivalLog(const std::string &Text, std::uint32_t NumSockets,
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

std::string rprosa::serializeArrivalLog(const ArrivalSequence &Arr) {
  std::string Out = "refinedprosa-arrivals v1\n# time socket task "
                    "payload\n";
  for (const Arrival &A : Arr.arrivals()) {
    Out += std::to_string(A.At);
    Out += ' ';
    Out += std::to_string(A.Socket);
    Out += ' ';
    Out += std::to_string(A.Msg.Task);
    Out += ' ';
    Out += std::to_string(A.Msg.PayloadLen);
    Out += '\n';
  }
  return Out;
}
