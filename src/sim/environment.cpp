//===- sim/environment.cpp ------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "sim/environment.h"

#include <cassert>
#include <vector>

using namespace rprosa;

Environment::Environment(const ArrivalSequence &Arr)
    : Sockets(Arr.numSockets()) {
  std::vector<std::size_t> PerSocket(Sockets.size(), 0);
  for (const Arrival &A : Arr.arrivals())
    if (A.Socket < PerSocket.size())
      ++PerSocket[A.Socket];
  for (std::size_t S = 0; S < Sockets.size(); ++S)
    Sockets[S].reserve(PerSocket[S]);
  for (const Arrival &A : Arr.arrivals()) {
    assert(A.Socket < Sockets.size() && "arrival on unknown socket");
    Sockets[A.Socket].deliver(A.At, A.Msg);
  }
}

std::optional<Message> Environment::read(SocketId Sock, Time ReturnTime) {
  assert(Sock < Sockets.size() && "read on unknown socket");
  return Sockets[Sock].tryRead(ReturnTime);
}

std::optional<Time> Environment::nextArrival() const {
  std::optional<Time> Best;
  for (const SimSocket &S : Sockets) {
    std::optional<Time> T = S.nextArrival();
    if (T && (!Best || *T < *Best))
      Best = T;
  }
  return Best;
}

std::size_t Environment::queuedMessages() const {
  std::size_t N = 0;
  for (const SimSocket &S : Sockets)
    N += S.queued();
  return N;
}
