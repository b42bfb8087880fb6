//===- analysis/verifier.cpp ----------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/verifier.h"

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <span>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::caesium;

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

/// The visited set, and the one store of every explored state. Each
/// distinct product state is encoded once into Width fixed-width words
/// of one flat store: its CFG node, its ProtocolSts::abstractKey(),
/// each register's value, then one bit string of each register's kind
/// (2 bits), HasJob and each buffer's fill (1 bit each). Two states
/// encode equally exactly when they agree on all of these, which makes
/// them indistinguishable to the rest of the search. An open-addressing
/// table of indices into the store answers a probe with one hash and a
/// few word compares; nothing is allocated per probe, and a key is
/// stored only when it is new. Keys are numbered in insertion order,
/// and decode() turns key I back into the state's node, registers,
/// buffers and job flag.
class StateSet {
public:
  StateSet(std::uint32_t NumRegs, std::uint32_t NumBufs)
      : NumRegs(NumRegs),
        Width(2 + NumRegs + (2 * NumRegs + 1 + NumBufs + 63) / 64),
        Probe(Width), Slots(std::size_t(1) << LogSlots, Empty) {}

  /// The CFG node of key \p Idx.
  NodeId node(std::size_t Idx) const {
    return static_cast<NodeId>(Keys[Idx * Width]);
  }

  /// Writes key \p Idx's node, registers, buffers and job flag into
  /// \p S, which has this set's register and buffer counts; its
  /// acceptor is left as it is.
  void decode(std::size_t Idx, AbsState &S) const {
    const std::uint64_t *W = Keys.data() + Idx * Width;
    S.Node = static_cast<NodeId>(W[0]);
    const std::uint64_t *Bits = W + 2 + NumRegs;
    std::size_t At = 0;
    auto Get = [Bits, &At](unsigned Len) {
      std::uint64_t V = (Bits[At / 64] >> (At % 64)) & ((1u << Len) - 1);
      At += Len;
      return V;
    };
    for (std::uint32_t R = 0; R < NumRegs; ++R) {
      S.Regs[R].V = static_cast<Value>(W[2 + R]);
      S.Regs[R].K = static_cast<AbsValue::Kind>(Get(2));
    }
    S.HasJob = Get(1) != 0;
    for (AbsBuf &B : S.Bufs)
      B = static_cast<AbsBuf>(Get(1));
  }

  /// Adds the key of \p S; true iff it was not in the set yet.
  bool insert(const AbsState &S) {
    encode(S);
    const std::size_t Mask = Slots.size() - 1;
    for (std::size_t At = slotOf(Probe.data());; At = (At + 1) & Mask) {
      const std::uint32_t Idx = Slots[At];
      if (Idx == Empty) {
        Slots[At] = Count++;
        Keys.insert(Keys.end(), Probe.begin(), Probe.end());
        if (2 * std::size_t(Count) > Slots.size())
          grow();
        return true;
      }
      if (std::equal(Probe.begin(), Probe.end(),
                     Keys.data() + std::size_t(Idx) * Width))
        return false;
    }
  }

private:
  static constexpr std::uint32_t Empty = ~std::uint32_t(0);

  void encode(const AbsState &S) {
    std::uint64_t *W = Probe.data();
    W[0] = S.Node;
    W[1] = S.Sts.abstractKey();
    std::uint64_t *Bits = W + 2 + NumRegs;
    std::fill(Bits, W + Width, 0);
    // Kinds first, at even offsets, so no 2-bit field straddles a word.
    std::size_t At = 0;
    auto Put = [Bits, &At](std::uint64_t V, unsigned Len) {
      Bits[At / 64] |= V << (At % 64);
      At += Len;
    };
    for (std::uint32_t R = 0; R < NumRegs; ++R) {
      W[2 + R] = static_cast<std::uint64_t>(S.Regs[R].V);
      Put(static_cast<std::uint64_t>(S.Regs[R].K), 2);
    }
    Put(S.HasJob ? 1 : 0, 1);
    for (AbsBuf B : S.Bufs)
      Put(static_cast<std::uint64_t>(B), 1);
  }

  /// Multiplicative hashing over the words; the top bits index the
  /// table.
  std::size_t slotOf(const std::uint64_t *W) const {
    std::uint64_t H = 0;
    for (std::size_t I = 0; I < Width; ++I)
      H = (H ^ W[I]) * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(H >> (64 - LogSlots));
  }

  void grow() {
    ++LogSlots;
    Slots.assign(std::size_t(1) << LogSlots, Empty);
    const std::size_t Mask = Slots.size() - 1;
    for (std::uint32_t Idx = 0; Idx < Count; ++Idx) {
      std::size_t At = slotOf(Keys.data() + std::size_t(Idx) * Width);
      while (Slots[At] != Empty)
        At = (At + 1) & Mask;
      Slots[At] = Idx;
    }
  }

  std::uint32_t NumRegs;
  std::size_t Width;
  std::vector<std::uint64_t> Probe; ///< The key being looked up.
  std::vector<std::uint64_t> Keys;  ///< Width words per stored state.
  unsigned LogSlots = 10;
  std::vector<std::uint32_t> Slots; ///< Indices into Keys, or Empty.
  std::uint32_t Count = 0;
};

/// One explored product state plus the edge that first reached it. The
/// state's node, registers, buffers and job flag live only in its
/// StateSet key, which has the same index; the acceptor is kept whole,
/// since its key records only its control state.
struct SearchNode {
  ProtocolSts Sts;
  std::int64_t Parent; ///< Index into the node arena; -1 for the root.
  /// Markers emitted (and accepted) on the incoming edge: the span
  /// [MarkersBegin, MarkersEnd) of the search's flat marker store.
  std::uint32_t MarkersBegin;
  std::uint32_t MarkersEnd;
};

/// Breadth-first search over the product. The arena doubles as the
/// queue: states are expanded in the order they were first reached,
/// each decoded from its key into one scratch state. Each successor is
/// built in a second scratch state, and its acceptor and edge markers
/// are stored only when its key is new; the label of an executed node
/// is rendered only into a counterexample trail.
class Search {
public:
  Search(const Cfg &G, std::uint32_t NumSockets)
      : G(G), NumSockets(NumSockets), RegBound(registerBound(NumSockets)),
        Visited(G.numRegs(), G.numBufs()),
        Cur(G.numRegs(), G.numBufs(), NumSockets), Next(Cur) {
    V.EdgeCover.assign(G.size(), 0);
    V.NodeVisited.assign(G.size(), false);
  }

  Verdict run() {
    Next.Node = G.Entry;
    enqueue(-1, {});
    for (std::size_t I = 0;
         I < Arena.size() && V.Kind == VerdictKind::Verified; ++I) {
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
  /// Starts a successor of \p S at \p To in the scratch state.
  AbsState &successor(const AbsState &S, NodeId To) {
    Next = S;
    Next.Node = To;
    return Next;
  }

  /// Adds the scratch successor, reached from \p Parent over an edge
  /// emitting \p Markers, if its key is new.
  void enqueue(std::int64_t Parent,
               std::initializer_list<MarkerEvent> Markers) {
    V.NodeVisited[Next.Node] = true;
    if (!Visited.insert(Next))
      return;
    const auto Begin = static_cast<std::uint32_t>(EdgeMarkers.size());
    EdgeMarkers.insert(EdgeMarkers.end(), Markers);
    Arena.push_back({Next.Sts, Parent, Begin,
                     static_cast<std::uint32_t>(EdgeMarkers.size())});
  }

  /// Walks the parent chain of \p I, filling the counterexample trail
  /// and accepted-marker prefix, then appends the failing step.
  void reportViolation(std::size_t I, const CfgNode &N,
                       std::span<const MarkerEvent> AcceptedHere,
                       const MarkerEvent &Rejected, std::string Why) {
    V.Kind = VerdictKind::ProtocolViolation;
    V.Diagnostic = std::move(Why);
    fillPath(I);
    V.MarkerPrefix.insert(V.MarkerPrefix.end(), AcceptedHere.begin(),
                          AcceptedHere.end());
    V.MarkerPrefix.push_back(Rejected);
    V.Trail.push_back(N.label());
  }

  void reportDefect(std::size_t I, const CfgNode &N, std::string Why) {
    V.Kind = VerdictKind::Defect;
    V.Diagnostic = std::move(Why);
    fillPath(I);
    V.Trail.push_back(N.label());
  }

  /// The edge into a state executed its parent's CFG node, so the trail
  /// labels the parent's node; the root has no incoming edge.
  void fillPath(std::size_t I) {
    std::vector<std::size_t> Chain;
    for (std::int64_t At = static_cast<std::int64_t>(I); At >= 0;
         At = Arena[At].Parent)
      Chain.push_back(static_cast<std::size_t>(At));
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
      const SearchNode &SN = Arena[*It];
      if (SN.Parent >= 0)
        V.Trail.push_back(G[Visited.node(SN.Parent)].label());
      V.MarkerPrefix.insert(V.MarkerPrefix.end(),
                            EdgeMarkers.begin() + SN.MarkersBegin,
                            EdgeMarkers.begin() + SN.MarkersEnd);
    }
  }

  /// Feeds \p Markers to the acceptor of the scratch successor. On
  /// rejection reports a violation and returns false; the accepted
  /// prefix up to the rejection is preserved.
  bool advanceSts(std::size_t I, const CfgNode &N,
                  std::initializer_list<MarkerEvent> Markers) {
    for (const MarkerEvent *M = Markers.begin(); M != Markers.end(); ++M) {
      std::string Why;
      if (!Next.Sts.step(*M, &Why)) {
        reportViolation(I, N, {Markers.begin(), M}, *M, std::move(Why));
        return false;
      }
    }
    ++V.TransitionsExplored;
    enqueue(static_cast<std::int64_t>(I), Markers);
    return true;
  }

  /// Successor without markers.
  void step(std::size_t I) {
    ++V.TransitionsExplored;
    enqueue(static_cast<std::int64_t>(I), {});
  }

  void expand(std::size_t I) {
    Visited.decode(I, Cur);
    Cur.Sts = Arena[I].Sts;
    const AbsState &S = Cur;
    const NodeId NId = S.Node;
    const CfgNode &N = G[NId];

    switch (N.K) {
    case CfgNode::Kind::Entry:
      successor(S, N.Succ);
      step(I);
      break;

    case CfgNode::Kind::Exit:
      // A finished path: every emitted marker was accepted.
      break;

    case CfgNode::Kind::Assign:
      successor(S, N.Succ).Regs[N.Dst] = evalAbstract(*N.E, S.Regs, RegBound);
      step(I);
      break;

    case CfgNode::Kind::Branch: {
      AbsBool T = truth(evalAbstract(*N.E, S.Regs, RegBound));
      if (T != AbsBool::False) {
        V.EdgeCover[NId] |= 1;
        successor(S, N.Succ);
        step(I);
      }
      if (T != AbsBool::True) {
        V.EdgeCover[NId] |= 2;
        successor(S, N.FalseSucc);
        step(I);
      }
      break;
    }

    case CfgNode::Kind::Read: {
      // Concrete socket if the register is precise; otherwise every
      // in-range socket plus one out-of-range representative (all
      // out-of-range values are indistinguishable to the STS: any
      // socket other than its round-robin cursor rejects identically).
      const AbsValue &SV = S.Regs[N.Reg];
      SocketId First = 0, Last = NumSockets;
      if (SV.K == AbsValue::Kind::Known)
        First = Last = static_cast<SocketId>(SV.V);
      for (SocketId Sock = First;; ++Sock) {
        // READ-STEP-FAILURE: result -1, M_ReadE sock ⊥.
        successor(S, N.Succ).Regs[N.Dst] = AbsValue::known(-1, RegBound);
        if (!advanceSts(I, N,
                        {MarkerEvent::readS(),
                         MarkerEvent::readE(Sock, std::nullopt)}))
          return;
        // READ-STEP-SUCCESS: payload length unknown but ≥ 0.
        AbsState &Ok = successor(S, N.Succ);
        Ok.Regs[N.Dst] = AbsValue::nonNeg();
        Ok.Bufs[N.Buf] = AbsBuf::Full;
        if (!advanceSts(I, N,
                        {MarkerEvent::readS(),
                         MarkerEvent::readE(Sock, canonicalJob())}))
          return;
        if (Sock == Last)
          break;
      }
      break;
    }

    case CfgNode::Kind::Trace: {
      AbsState &Out = successor(S, N.Succ);
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
          reportDefect(I, N,
                       "dispatch of an empty buffer buf" +
                           std::to_string(N.Buf) +
                           " (the Fig. 6 machine has no datagram to "
                           "resolve a job from)");
          return;
        }
        M = MarkerEvent::dispatch(canonicalJob());
        Out.HasJob = true;
        break;
      case TraceFn::TrExec:
        M = MarkerEvent::execution(canonicalJob());
        break;
      case TraceFn::TrCompl:
        M = MarkerEvent::completion(canonicalJob());
        Out.HasJob = false;
        break;
      }
      bool NeedsJob = N.Fn == TraceFn::TrExec || N.Fn == TraceFn::TrCompl;
      if (!advanceSts(I, N, {M}))
        return;
      // Invariant: the STS sits in its execution/completion phases only
      // while the machine holds a dispatched job, so a job-less marker
      // is always rejected above. Defend against regressions anyway.
      if (NeedsJob && !S.HasJob && V.Kind == VerdictKind::Verified) {
        reportDefect(I, N,
                     "execution/completion marker without a dispatched "
                     "job (machine precondition)");
        return;
      }
      break;
    }

    case CfgNode::Kind::Enqueue:
      if (S.Bufs[N.Buf] == AbsBuf::Empty) {
        reportDefect(I, N,
                     "enqueue of an empty buffer buf" + std::to_string(N.Buf));
        return;
      }
      successor(S, N.Succ);
      step(I);
      break;

    case CfgNode::Kind::Dequeue: {
      // Hit: the policy hands out some pending message.
      AbsState &Hit = successor(S, N.Succ);
      Hit.Bufs[N.Buf] = AbsBuf::Full;
      Hit.Regs[N.Dst] = AbsValue::known(1, RegBound);
      step(I);
      // Miss: the queue is empty.
      successor(S, N.Succ).Regs[N.Dst] = AbsValue::known(0, RegBound);
      step(I);
      break;
    }

    case CfgNode::Kind::Free:
      successor(S, N.Succ).Bufs[N.Buf] = AbsBuf::Empty;
      step(I);
      break;
    }
  }

  const Cfg &G;
  std::uint32_t NumSockets;
  /// Constants with |v| above this widen to NonNeg/Top.
  caesium::Value RegBound;
  Verdict V;

  StateSet Visited;
  std::deque<SearchNode> Arena;
  /// The edge markers of every arena node, back to back.
  std::vector<MarkerEvent> EdgeMarkers;
  /// The state being expanded, and the successor under construction.
  AbsState Cur, Next;
};

} // namespace

Verdict rprosa::analysis::verifyProtocol(const Cfg &G,
                                         std::uint32_t NumSockets) {
  return Search(G, NumSockets).run();
}

Verdict rprosa::analysis::verifyProtocol(const StmtPtr &Program,
                                         std::uint32_t NumSockets) {
  return verifyProtocol(buildCfg(Program), NumSockets);
}

std::string Verdict::describe() const {
  std::string Out;
  switch (Kind) {
  case VerdictKind::Verified:
    Out = "VERIFIED: all marker sequences accepted by the protocol STS (" +
          std::to_string(StatesExplored) + " states, " +
          std::to_string(TransitionsExplored) + " transitions explored)";
    return Out;
  case VerdictKind::ProtocolViolation:
    Out = "PROTOCOL VIOLATION: " + Diagnostic;
    break;
  case VerdictKind::Defect:
    Out = "DEFECT: " + Diagnostic;
    break;
  case VerdictKind::ResourceLimit:
    return "INCONCLUSIVE: " + Diagnostic;
  }
  Out += "\n  marker prefix:";
  for (const MarkerEvent &M : MarkerPrefix)
    Out += " " + toString(M);
  Out += "\n  statement trail (" + std::to_string(Trail.size()) + " steps):\n";
  for (const std::string &L : Trail)
    Out += "    " + L + "\n";
  return Out;
}
