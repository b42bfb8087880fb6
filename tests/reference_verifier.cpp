//===- tests/reference_verifier.cpp ---------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "reference_verifier.h"

#include <deque>
#include <unordered_set>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::caesium;

std::string rprosa::reference::stateKey(const AbsState &S) {
  std::string K;
  K.reserve(16 + S.Regs.size() * 9 + S.Bufs.size());
  auto putU64 = [&K](std::uint64_t V) {
    for (int I = 0; I < 8; ++I)
      K.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  };
  putU64(S.Node);
  for (const AbsValue &R : S.Regs) {
    K.push_back(static_cast<char>(R.K));
    putU64(static_cast<std::uint64_t>(R.V));
  }
  for (AbsBuf B : S.Bufs)
    K.push_back(static_cast<char>(B));
  K.push_back(S.HasJob ? 1 : 0);
  putU64(S.Sts.abstractKey());
  return K;
}

namespace {

/// Safety valve on distinct product states (the Rössl state space stays
/// below ten thousand even at 256 sockets; this only trips on
/// pathological inputs).
constexpr std::size_t MaxStates = 1u << 20;

/// The canonical job every concretised marker carries. Sound because
/// job *identity* only matters between a Dispatch and its Completion,
/// and the machine always emits its CurrentJob there — so the STS's
/// id-match checks can never fail on identity, only on ordering (see
/// ProtocolSts::abstractKey).
Job canonicalJob() {
  Job J;
  J.Id = 1;
  J.Task = 0;
  return J;
}

/// One explored product state plus the edge that produced it.
struct SearchNode {
  AbsState State;
  std::int64_t Parent; ///< Index into the node arena; -1 for the root.
  /// Markers emitted (and accepted) on the incoming edge.
  std::vector<MarkerEvent> EdgeMarkers;
  /// Label of the CFG node executed on the incoming edge.
  std::string EdgeLabel;
};

class Search {
public:
  Search(const Cfg &G, std::uint32_t NumSockets)
      : G(G), NumSockets(NumSockets), RegBound(registerBound(NumSockets)) {
    V.EdgeCover.assign(G.size(), 0);
    V.NodeVisited.assign(G.size(), false);
  }

  Verdict run() {
    AbsState Init(G.numRegs(), G.numBufs(), NumSockets);
    Init.Node = G.Entry;
    enqueue(std::move(Init), -1, {}, "");
    while (!Queue.empty() && V.Kind == VerdictKind::Verified) {
      std::size_t I = Queue.front();
      Queue.pop_front();
      ++V.StatesExplored;
      expand(I);
      if (Arena.size() > MaxStates) {
        V.Kind = VerdictKind::ResourceLimit;
        V.Diagnostic = "state limit of " + std::to_string(MaxStates) +
                       " exceeded; verdict inconclusive";
      }
    }
    return std::move(V);
  }

private:
  /// Adds the successor state if its key is new.
  void enqueue(AbsState S, std::int64_t Parent,
               std::vector<MarkerEvent> Markers, std::string Label) {
    V.NodeVisited[S.Node] = true;
    if (!Visited.insert(reference::stateKey(S)).second)
      return;
    Arena.push_back(
        {std::move(S), Parent, std::move(Markers), std::move(Label)});
    Queue.push_back(Arena.size() - 1);
  }

  /// Walks the parent chain of \p I, filling the counterexample trail
  /// and accepted-marker prefix, then appends the failing step.
  void reportViolation(std::size_t I, const CfgNode &N,
                       std::vector<MarkerEvent> AcceptedHere,
                       MarkerEvent Rejected, std::string Why) {
    V.Kind = VerdictKind::ProtocolViolation;
    V.Diagnostic = std::move(Why);
    fillPath(I);
    for (MarkerEvent &M : AcceptedHere)
      V.MarkerPrefix.push_back(std::move(M));
    V.MarkerPrefix.push_back(std::move(Rejected));
    V.Trail.push_back(N.label());
  }

  void reportDefect(std::size_t I, const CfgNode &N,
                    std::vector<MarkerEvent> AcceptedHere, std::string Why) {
    V.Kind = VerdictKind::Defect;
    V.Diagnostic = std::move(Why);
    fillPath(I);
    for (MarkerEvent &M : AcceptedHere)
      V.MarkerPrefix.push_back(std::move(M));
    V.Trail.push_back(N.label());
  }

  void fillPath(std::size_t I) {
    std::vector<std::size_t> Chain;
    for (std::int64_t At = static_cast<std::int64_t>(I); At >= 0;
         At = Arena[At].Parent)
      Chain.push_back(static_cast<std::size_t>(At));
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
      const SearchNode &SN = Arena[*It];
      if (!SN.EdgeLabel.empty())
        V.Trail.push_back(SN.EdgeLabel);
      V.MarkerPrefix.insert(V.MarkerPrefix.end(), SN.EdgeMarkers.begin(),
                            SN.EdgeMarkers.end());
    }
  }

  /// Feeds \p Markers to the acceptor of \p Next. On rejection reports
  /// a violation and returns false; the accepted prefix up to the
  /// rejection is preserved.
  bool advanceSts(std::size_t I, const CfgNode &N, AbsState Next,
                  std::vector<MarkerEvent> Markers) {
    std::vector<MarkerEvent> Accepted;
    for (std::size_t M = 0; M < Markers.size(); ++M) {
      std::string Why;
      if (!Next.Sts.step(Markers[M], &Why)) {
        reportViolation(I, N, std::move(Accepted), std::move(Markers[M]),
                        std::move(Why));
        return false;
      }
      Accepted.push_back(std::move(Markers[M]));
    }
    Markers = std::move(Accepted);
    ++V.TransitionsExplored;
    enqueue(std::move(Next), static_cast<std::int64_t>(I), std::move(Markers),
            N.label());
    return true;
  }

  /// Successor without markers.
  void step(std::size_t I, const CfgNode &N, AbsState Next) {
    ++V.TransitionsExplored;
    enqueue(std::move(Next), static_cast<std::int64_t>(I), {}, N.label());
  }

  void expand(std::size_t I) {
    // Arena may reallocate while enqueuing successors; copy the state.
    const AbsState S = Arena[I].State;
    const NodeId NId = S.Node;
    const CfgNode &N = G[NId];

    switch (N.K) {
    case CfgNode::Kind::Entry: {
      AbsState Next = S;
      Next.Node = N.Succ;
      step(I, N, std::move(Next));
      break;
    }

    case CfgNode::Kind::Exit:
      // A finished path: every emitted marker was accepted.
      break;

    case CfgNode::Kind::Assign: {
      AbsState Next = S;
      Next.Regs[N.Dst] = evalAbstract(*N.E, S.Regs, RegBound);
      Next.Node = N.Succ;
      step(I, N, std::move(Next));
      break;
    }

    case CfgNode::Kind::Branch: {
      AbsBool T = truth(evalAbstract(*N.E, S.Regs, RegBound));
      if (T != AbsBool::False) {
        V.EdgeCover[NId] |= 1;
        AbsState Next = S;
        Next.Node = N.Succ;
        step(I, N, std::move(Next));
      }
      if (T != AbsBool::True) {
        V.EdgeCover[NId] |= 2;
        AbsState Next = S;
        Next.Node = N.FalseSucc;
        step(I, N, std::move(Next));
      }
      break;
    }

    case CfgNode::Kind::Read: {
      // Concrete socket if the register is precise; otherwise every
      // in-range socket plus one out-of-range representative (all
      // out-of-range values are indistinguishable to the STS: any
      // socket other than its round-robin cursor rejects identically).
      std::vector<SocketId> Socks;
      const AbsValue &SV = S.Regs[N.Reg];
      if (SV.K == AbsValue::Kind::Known)
        Socks.push_back(static_cast<SocketId>(SV.V));
      else
        for (SocketId Sock = 0; Sock <= NumSockets; ++Sock)
          Socks.push_back(Sock);

      for (SocketId Sock : Socks) {
        { // READ-STEP-FAILURE: result -1, M_ReadE sock ⊥.
          AbsState Next = S;
          Next.Regs[N.Dst] = AbsValue::known(-1, RegBound);
          Next.Node = N.Succ;
          if (!advanceSts(I, N, std::move(Next),
                          {MarkerEvent::readS(),
                           MarkerEvent::readE(Sock, std::nullopt)}))
            return;
        }
        { // READ-STEP-SUCCESS: payload length unknown but ≥ 0.
          AbsState Next = S;
          Next.Regs[N.Dst] = AbsValue::nonNeg();
          Next.Bufs[N.Buf] = AbsBuf::Full;
          Next.Node = N.Succ;
          if (!advanceSts(I, N, std::move(Next),
                          {MarkerEvent::readS(),
                           MarkerEvent::readE(Sock, canonicalJob())}))
            return;
        }
      }
      break;
    }

    case CfgNode::Kind::Trace: {
      AbsState Next = S;
      Next.Node = N.Succ;
      MarkerEvent M = MarkerEvent::idling();
      switch (N.Fn) {
      case TraceFn::TrSelection:
        M = MarkerEvent::selection();
        break;
      case TraceFn::TrIdling:
        M = MarkerEvent::idling();
        break;
      case TraceFn::TrDisp:
        if (S.Bufs[N.Buf] == AbsBuf::Empty) {
          reportDefect(I, N, {},
                       "dispatch of an empty buffer buf" +
                           std::to_string(N.Buf) +
                           " (the Fig. 6 machine has no datagram to "
                           "resolve a job from)");
          return;
        }
        M = MarkerEvent::dispatch(canonicalJob());
        Next.HasJob = true;
        break;
      case TraceFn::TrExec:
        M = MarkerEvent::execution(canonicalJob());
        break;
      case TraceFn::TrCompl:
        M = MarkerEvent::completion(canonicalJob());
        Next.HasJob = false;
        break;
      }
      bool NeedsJob = N.Fn == TraceFn::TrExec || N.Fn == TraceFn::TrCompl;
      bool HadJob = S.HasJob;
      if (!advanceSts(I, N, std::move(Next), {std::move(M)}))
        return;
      // Invariant: the STS sits in its execution/completion phases only
      // while the machine holds a dispatched job, so a job-less marker
      // is always rejected above. Defend against regressions anyway.
      if (NeedsJob && !HadJob && V.Kind == VerdictKind::Verified) {
        reportDefect(I, N, {},
                     "execution/completion marker without a dispatched "
                     "job (machine precondition)");
        return;
      }
      break;
    }

    case CfgNode::Kind::Enqueue: {
      if (S.Bufs[N.Buf] == AbsBuf::Empty) {
        reportDefect(I, N, {},
                     "enqueue of an empty buffer buf" + std::to_string(N.Buf));
        return;
      }
      AbsState Next = S;
      Next.Node = N.Succ;
      step(I, N, std::move(Next));
      break;
    }

    case CfgNode::Kind::Dequeue: {
      { // Hit: the policy hands out some pending message.
        AbsState Next = S;
        Next.Bufs[N.Buf] = AbsBuf::Full;
        Next.Regs[N.Dst] = AbsValue::known(1, RegBound);
        Next.Node = N.Succ;
        step(I, N, std::move(Next));
      }
      { // Miss: the queue is empty.
        AbsState Next = S;
        Next.Regs[N.Dst] = AbsValue::known(0, RegBound);
        Next.Node = N.Succ;
        step(I, N, std::move(Next));
      }
      break;
    }

    case CfgNode::Kind::Free: {
      AbsState Next = S;
      Next.Bufs[N.Buf] = AbsBuf::Empty;
      Next.Node = N.Succ;
      step(I, N, std::move(Next));
      break;
    }
    }
  }

  const Cfg &G;
  std::uint32_t NumSockets;
  /// Constants with |v| above this widen to NonNeg/Top.
  caesium::Value RegBound;
  Verdict V;

  std::vector<SearchNode> Arena;
  std::deque<std::size_t> Queue;
  std::unordered_set<std::string> Visited;
};

} // namespace

Verdict rprosa::reference::verifyProtocol(const Cfg &G,
                                          std::uint32_t NumSockets) {
  return Search(G, NumSockets).run();
}
