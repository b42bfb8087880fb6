//===- analysis/dataflow/witness.cpp --------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/dataflow/witness.h"

#include "analysis/dataflow/zone.h"
#include "caesium/interp.h"
#include "caesium/print.h"
#include "core/arrival_curve.h"
#include "core/arrival_sequence.h"
#include "sim/cost_model.h"
#include "sim/environment.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::analysis::dataflow;
using namespace rprosa::caesium;

namespace {

//===----------------------------------------------------------------------===//
// Trap conditions as zone constraints
//===----------------------------------------------------------------------===//

/// One way the flagged node can trap, as a conjunction of difference
/// constraints (D <= C / D >= C). A finding usually has several
/// alternatives (overflow above vs below, socket index too high vs
/// negative); the trap fires iff SOME alternative holds.
struct TrapAlt {
  struct Con {
    DiffExpr D;
    bool Le = true;
    I128 C = 0;
  };
  std::vector<Con> Cons;
  std::string Desc;
};

/// Conjoins \p A onto \p Z. Returns false iff infeasible.
bool applyAlt(Zone &Z, const TrapAlt &A) {
  for (const TrapAlt::Con &C : A.Cons)
    if (!(C.Le ? constrainDiffLe(Z, C.D, C.C) : constrainDiffGe(Z, C.D, C.C)))
      return false;
  return !Z.isEmpty();
}

void addEqCons(TrapAlt &A, const DiffExpr &D, I128 C) {
  A.Cons.push_back({D, true, C});
  A.Cons.push_back({D, false, C});
}

/// Collects the overflow alternatives of every Add/Sub/Div/Mod in \p E.
/// A subexpression without a difference-bound form appends to
/// \p Blocked instead — suppression then stays off (the alternatives
/// would under-cover the trap condition), while confirmation is still
/// allowed (replay re-validates it anyway).
void collectOverflowAlts(const Expr &E, std::vector<TrapAlt> &Alts,
                         std::string &Blocked) {
  if (E.L)
    collectOverflowAlts(*E.L, Alts, Blocked);
  if (E.R)
    collectOverflowAlts(*E.R, Alts, Blocked);
  if (E.K == Expr::Kind::Add || E.K == Expr::Kind::Sub) {
    DiffExpr S = diffExprOf(E);
    if (!S.Ok) {
      if (Blocked.empty())
        Blocked = "no difference-bound form for " + printExpr(E);
      return;
    }
    TrapAlt Hi;
    Hi.Cons.push_back({S, false, static_cast<I128>(INT64_MAX) + 1});
    Hi.Desc = printExpr(E) + " > INT64_MAX";
    Alts.push_back(std::move(Hi));
    TrapAlt Lo;
    Lo.Cons.push_back({S, true, static_cast<I128>(INT64_MIN) - 1});
    Lo.Desc = printExpr(E) + " < INT64_MIN";
    Alts.push_back(std::move(Lo));
  } else if (E.K == Expr::Kind::Div || E.K == Expr::Kind::Mod) {
    // INT64_MIN / -1 is the one division that overflows.
    DiffExpr L = diffExprOf(*E.L), R = diffExprOf(*E.R);
    if (!L.Ok || !R.Ok) {
      if (Blocked.empty())
        Blocked = "no difference-bound form for " + printExpr(E);
      return;
    }
    TrapAlt A;
    addEqCons(A, L, INT64_MIN);
    addEqCons(A, R, -1);
    A.Desc = printExpr(E) + " == INT64_MIN / -1";
    Alts.push_back(std::move(A));
  }
}

void collectDivZeroAlts(const Expr &E, std::vector<TrapAlt> &Alts,
                        std::string &Blocked) {
  if (E.L)
    collectDivZeroAlts(*E.L, Alts, Blocked);
  if (E.R)
    collectDivZeroAlts(*E.R, Alts, Blocked);
  if (E.K != Expr::Kind::Div && E.K != Expr::Kind::Mod)
    return;
  DiffExpr R = diffExprOf(*E.R);
  if (!R.Ok) {
    if (Blocked.empty())
      Blocked = "no difference-bound form for divisor " + printExpr(*E.R);
    return;
  }
  TrapAlt A;
  addEqCons(A, R, 0);
  A.Desc = "divisor " + printExpr(*E.R) + " == 0";
  Alts.push_back(std::move(A));
}

std::vector<TrapAlt> trapAlternatives(const Cfg &G, const Finding &F,
                                      std::uint32_t NumSockets,
                                      std::string &Blocked) {
  std::vector<TrapAlt> Alts;
  const CfgNode &Node = G[F.Node];
  if (F.CheckId == "value-range.socket-range") {
    if (Node.K != CfgNode::Kind::Read) {
      Blocked = "socket-range finding on a non-read node";
      return Alts;
    }
    DiffExpr Sock;
    Sock.Ok = true;
    Sock.Pos = Node.Reg + 1;
    TrapAlt Hi;
    Hi.Cons.push_back({Sock, false, static_cast<I128>(NumSockets)});
    Hi.Desc = "socket index >= " + std::to_string(NumSockets);
    Alts.push_back(std::move(Hi));
    TrapAlt Lo;
    Lo.Cons.push_back({Sock, true, -1});
    Lo.Desc = "socket index < 0";
    Alts.push_back(std::move(Lo));
    return Alts;
  }
  if (!Node.E) {
    Blocked = "finding on a node without an expression";
    return Alts;
  }
  if (F.CheckId == "value-range.div-by-zero")
    collectDivZeroAlts(*Node.E, Alts, Blocked);
  else if (F.CheckId == "value-range.signed-overflow")
    collectOverflowAlts(*Node.E, Alts, Blocked);
  else
    Blocked = "unrecognized value-range check-id";
  return Alts;
}

std::string describeAlts(const std::vector<TrapAlt> &Alts) {
  std::string Out;
  for (const TrapAlt &A : Alts) {
    if (!Out.empty())
      Out += " / ";
    Out += A.Desc;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// The bounded symbolic path executor
//===----------------------------------------------------------------------===//

/// One frontier entry of the DFS: a CFG position plus everything needed
/// to (a) decide feasibility (the zone over registers + scripted-read
/// payload variables) and (b) decide replayability (machine
/// preconditions and the per-socket success/failure order the
/// synthesized environment can actually produce).
struct ExecState {
  NodeId Node = 0;
  Zone Z{1};
  std::vector<std::uint16_t> Visits; ///< Per-node, along this path.
  std::vector<NodeId> Trail;         ///< Nodes popped so far (the path).

  struct ReadEvt {
    std::int64_t Sock = 0;     ///< Concrete socket (valid iff replayable).
    bool Success = false;
    std::uint32_t Var = 0;     ///< Payload zone variable (success only).
  };
  std::vector<ReadEvt> Reads;
  std::uint32_t InputsUsed = 0;

  std::vector<std::uint8_t> BufFilled;
  std::vector<std::uint8_t> SockFailed; ///< Failed read seen per socket.
  int QueueLen = 0;
  bool JobOpen = false;

  bool Replayable = true;
  std::string NotReplayableWhy;
};

void markNotReplayable(ExecState &S, const char *Why) {
  if (S.Replayable) {
    S.Replayable = false;
    S.NotReplayableWhy = Why;
  }
}

/// What one finding's search produced.
struct SearchResult {
  bool Found = false;
  ExecState State;     ///< The witness path (Found only).
  Zone TrapZone{1};    ///< State.Z conjoined with the trap alternative.
  std::uint64_t Steps = 0;
  bool CapHit = false; ///< A visit cap / frontier cap truncated search.
  bool BudgetHit = false;
  std::string NonReplayableWhy; ///< A feasible but unreplayable path.
};

/// Path-executor expansions per finding before giving up.
constexpr std::uint64_t StepBudget = 20000;
/// Times one CFG node may appear on a single path (loop unrolling depth
/// of the search).
constexpr std::uint32_t MaxVisitsPerNode = 8;
/// Scripted successful reads per path (each costs one zone variable).
constexpr std::uint32_t MaxScriptedReads = 8;

SearchResult searchTrapPath(const Cfg &G, const Finding &F,
                            const std::vector<TrapAlt> &Alts,
                            const std::vector<char> &CanReach,
                            const WitnessOptions &Opts) {
  const std::uint32_t NumRegs = G.numRegs();
  const std::uint32_t InputBase = 1 + NumRegs;
  const std::uint32_t TotalVars = InputBase + MaxScriptedReads;
  // The frontier cap bounds memory; hitting it forfeits the
  // exhaustive-enumeration suppression proof, like a visit cap.
  const std::size_t FrontierCap = 4096;

  SearchResult Res;
  std::vector<ExecState> Stack;

  ExecState Init;
  Init.Node = G.Entry;
  Init.Z = Zone(TotalVars);
  for (std::uint32_t R = 0; R < NumRegs; ++R)
    Init.Z.setConst(R + 1, 0);
  Init.Visits.assign(G.size(), 0);
  Init.BufFilled.assign(std::max<std::uint32_t>(1, G.numBufs()), 0);
  Init.SockFailed.assign(Opts.NumSockets, 0);
  Stack.push_back(std::move(Init));

  auto pushTo = [&](NodeId T, ExecState &&NS) {
    if (T == InvalidNode || !CanReach[T])
      return;
    if (Stack.size() >= FrontierCap) {
      Res.CapHit = true;
      return;
    }
    NS.Node = T;
    Stack.push_back(std::move(NS));
  };

  while (!Stack.empty()) {
    if (Res.Steps >= StepBudget) {
      Res.BudgetHit = true;
      break;
    }
    ExecState S = std::move(Stack.back());
    Stack.pop_back();
    ++Res.Steps;
    S.Trail.push_back(S.Node);

    // Arrival at the flagged node: does some trap alternative hold?
    if (S.Node == F.Node) {
      for (const TrapAlt &A : Alts) {
        Zone T = S.Z;
        if (!applyAlt(T, A))
          continue;
        if (!S.Replayable) {
          if (Res.NonReplayableWhy.empty())
            Res.NonReplayableWhy = S.NotReplayableWhy;
          break;
        }
        Res.Found = true;
        Res.State = std::move(S);
        Res.TrapZone = std::move(T);
        return Res;
      }
    }

    if (S.Visits[S.Node] >= MaxVisitsPerNode) {
      Res.CapHit = true;
      continue;
    }
    ++S.Visits[S.Node];

    const CfgNode &Node = G[S.Node];
    switch (Node.K) {
    case CfgNode::Kind::Entry:
      pushTo(Node.Succ, std::move(S));
      break;
    case CfgNode::Kind::Exit:
      break;
    case CfgNode::Kind::Assign:
      if (Node.E)
        applyZoneAssign(S.Z, Node.Dst, *Node.E);
      pushTo(Node.Succ, std::move(S));
      break;
    case CfgNode::Kind::Branch: {
      if (!Node.E || Node.Succ == Node.FalseSucc ||
          Node.FalseSucc == InvalidNode) {
        pushTo(Node.Succ, std::move(S));
        break;
      }
      // True edge pushed first, so the false edge (the read-failed /
      // loop-exit side) is explored first: a LIFO frontier pops the
      // last push.
      {
        ExecState NS = S;
        if (refineZoneByCondition(NS.Z, *Node.E, true) && !NS.Z.isEmpty())
          pushTo(Node.Succ, std::move(NS));
      }
      {
        ExecState NS = std::move(S);
        if (refineZoneByCondition(NS.Z, *Node.E, false) && !NS.Z.isEmpty())
          pushTo(Node.FalseSucc, std::move(NS));
      }
      break;
    }
    case CfgNode::Kind::Read: {
      const std::uint32_t SockV = Node.Reg + 1;
      const std::int64_t SockLo = S.Z.lo(SockV), SockHi = S.Z.hi(SockV);
      const bool SockConst = SockLo == SockHi;
      const bool SockValid =
          SockConst && SockLo >= 0 &&
          SockLo < static_cast<std::int64_t>(Opts.NumSockets);
      // Trap-free continuations constrain the socket into range (the
      // machine halts otherwise; the trap itself is handled at target
      // arrival above).
      // Success outcome (pushed first = explored second).
      {
        ExecState NS = S;
        if (NS.Z.constrainWide(SockV, 0,
                               static_cast<I128>(Opts.NumSockets) - 1) &&
            NS.Z.constrainWide(0, SockV, 0)) {
          const std::uint32_t DstV = Node.Dst + 1;
          ExecState::ReadEvt Evt;
          Evt.Sock = SockConst ? SockLo : 0;
          Evt.Success = true;
          if (NS.InputsUsed < MaxScriptedReads) {
            const std::uint32_t V = InputBase + NS.InputsUsed++;
            NS.Z.constrainWide(V, 0, static_cast<I128>(UINT32_MAX));
            NS.Z.constrainWide(0, V, 0);
            NS.Z.setCopyShift(DstV, V, 0);
            Evt.Var = V;
          } else {
            NS.Z.forget(DstV);
            NS.Z.constrainWide(DstV, 0, static_cast<I128>(UINT32_MAX));
            NS.Z.constrainWide(0, DstV, 0);
            markNotReplayable(NS, "scripted-read budget exhausted");
          }
          if (!SockValid)
            markNotReplayable(NS, "read socket not a path constant");
          else if (NS.SockFailed[static_cast<std::size_t>(SockLo)])
            markNotReplayable(NS, "a successful read would follow a failed "
                                  "read on the same socket");
          NS.Reads.push_back(Evt);
          NS.BufFilled[Node.Buf] = 1;
          pushTo(Node.Succ, std::move(NS));
        }
      }
      // Failure outcome (explored first; needs no scripted input).
      {
        ExecState NS = std::move(S);
        if (NS.Z.constrainWide(SockV, 0,
                               static_cast<I128>(Opts.NumSockets) - 1) &&
            NS.Z.constrainWide(0, SockV, 0)) {
          NS.Z.setConst(Node.Dst + 1, -1);
          if (SockValid)
            NS.SockFailed[static_cast<std::size_t>(SockLo)] = 1;
          else
            markNotReplayable(NS, "read socket not a path constant");
          ExecState::ReadEvt Evt;
          Evt.Sock = SockConst ? SockLo : 0;
          NS.Reads.push_back(Evt);
          pushTo(Node.Succ, std::move(NS));
        }
      }
      break;
    }
    case CfgNode::Kind::Dequeue: {
      // Deterministic given the tracked queue length, so a single
      // successor — exactly what the machine does.
      const std::uint32_t DstV = Node.Dst + 1;
      if (S.QueueLen > 0) {
        --S.QueueLen;
        S.BufFilled[Node.Buf] = 1;
        S.Z.setConst(DstV, 1);
      } else {
        S.Z.setConst(DstV, 0);
      }
      pushTo(Node.Succ, std::move(S));
      break;
    }
    case CfgNode::Kind::Enqueue:
      if (!S.BufFilled[Node.Buf])
        markNotReplayable(S, "enqueue of an unfilled buffer");
      ++S.QueueLen;
      pushTo(Node.Succ, std::move(S));
      break;
    case CfgNode::Kind::Trace:
      switch (Node.Fn) {
      case TraceFn::TrDisp:
        if (!S.BufFilled[Node.Buf])
          markNotReplayable(S, "dispatch of an unfilled buffer");
        S.JobOpen = true;
        break;
      case TraceFn::TrExec:
        if (!S.JobOpen)
          markNotReplayable(S, "execution marker without an open job");
        break;
      case TraceFn::TrCompl:
        if (!S.JobOpen)
          markNotReplayable(S, "completion marker without an open job");
        S.JobOpen = false;
        break;
      default:
        break;
      }
      pushTo(Node.Succ, std::move(S));
      break;
    case CfgNode::Kind::Free:
      S.BufFilled[Node.Buf] = 0;
      pushTo(Node.Succ, std::move(S));
      break;
    }
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// Concrete environment synthesis + in-process replay
//===----------------------------------------------------------------------===//

/// The scripted environment of a witness path: payloads come from the
/// closed trap zone's lower-bound point, which jointly satisfies every
/// path and trap constraint (triangle inequality of a closed DBM).
ArrivalSequence buildArrivals(const ExecState &S, const Zone &TrapZone,
                              const WitnessOptions &Opts,
                              std::vector<std::string> &Inputs) {
  ArrivalSequence Arr(Opts.NumSockets);
  for (const ExecState::ReadEvt &E : S.Reads) {
    if (!E.Success) {
      Inputs.push_back("read(sock " + std::to_string(E.Sock) + ") -> fail");
      continue;
    }
    std::int64_t P = E.Var ? TrapZone.lo(E.Var) : 0;
    P = std::clamp<std::int64_t>(P, 0, UINT32_MAX);
    Arr.addArrival(0, static_cast<SocketId>(E.Sock), 0,
                   static_cast<std::uint32_t>(P));
    Inputs.push_back("read(sock " + std::to_string(E.Sock) +
                     ") -> payload " + std::to_string(P));
  }
  return Arr;
}

struct ReplayOutcome {
  bool Trapped = false;
  std::string CheckId;
};

ReplayOutcome replayOnMachine(const Cfg &G, const ArrivalSequence &Arr,
                              const WitnessOptions &Opts) {
  // A minimal one-task deployment: the machine's trap semantics do not
  // depend on task parameters, only on the scripted arrivals.
  ClientConfig C;
  C.Tasks.addTask("witness", 4, 1, std::make_shared<PeriodicCurve>(1000));
  C.NumSockets = Opts.NumSockets;
  C.Wcets.FailedRead = 4;
  C.Wcets.SuccessfulRead = 10;
  C.Wcets.Selection = 3;
  C.Wcets.Dispatch = 2;
  C.Wcets.Completion = 5;
  C.Wcets.Idling = 8;

  Environment Env(Arr);
  CostModel Costs(C.Wcets, CostModelKind::AlwaysWcet, 1);
  CaesiumMachine M(C, Env, Costs, std::max<std::size_t>(4, G.numBufs()),
                   std::max<std::size_t>(8, G.numRegs()));
  RunLimits Limits;
  Limits.Horizon = 1000000;
  Limits.MaxMarkers = 50000;
  M.run(G.Root, Limits);

  ReplayOutcome Out;
  if (M.trap()) {
    Out.Trapped = true;
    Out.CheckId = M.trap()->checkId();
  }
  return Out;
}

/// Backward reachability to \p Target over the CFG edges — the DFS
/// prunes successors that cannot reach the flagged node at all.
std::vector<char> canReach(const Cfg &G, const CfgOrder &Order,
                           NodeId Target) {
  std::vector<char> Can(G.size(), 0);
  std::vector<NodeId> Work{Target};
  Can[Target] = 1;
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    for (NodeId P : Order.preds(N))
      if (!Can[P]) {
        Can[P] = 1;
        Work.push_back(P);
      }
  }
  return Can;
}

} // namespace

WitnessSummary
rprosa::analysis::dataflow::refineFindings(const Cfg &G,
                                           std::vector<Finding> &Fs,
                                           const WitnessOptions &Opts) {
  WitnessSummary Sum;
  // Solved lazily, once: the zone depends on the program, not the finding.
  std::optional<CfgOrder> Order;
  Solution<ZoneState> Fix;
  for (Finding &F : Fs) {
    if (F.Sev != Severity::Warning ||
        F.CheckId.rfind("value-range.", 0) != 0 || F.Node >= G.size())
      continue;
    if (!Order) {
      Order = CfgOrder::compute(G);
      Fix = solve(G, ZoneDomain(G.numRegs(), Opts.NumSockets), *Order);
    }
    ++Sum.Attempted;
    WitnessRefinement R;

    std::string Blocked;
    std::vector<TrapAlt> Alts =
        trapAlternatives(G, F, Opts.NumSockets, Blocked);

    // (1) Fixpoint suppression: the trap condition must be infeasible
    // against the OVER-approximating In-state, the fixpoint must have
    // converged, and the alternatives must fully cover the trap
    // condition (Blocked empty).
    if (Fix.Converged) {
      const ZoneState &In = Fix.In[F.Node];
      bool Suppress = false;
      if (!In.Reachable) {
        Suppress = true;
        R.Detail = "zone fixpoint: the node is unreachable";
      } else if (Blocked.empty() && !Alts.empty()) {
        bool AnyFeasible = false;
        for (const TrapAlt &A : Alts) {
          Zone T = In.Z;
          if (applyAlt(T, A)) {
            AnyFeasible = true;
            break;
          }
        }
        if (!AnyFeasible) {
          Suppress = true;
          R.Detail = "zone fixpoint proves " + describeAlts(Alts) +
                     " infeasible in every reachable state";
        }
      }
      if (Suppress) {
        R.St = WitnessRefinement::Status::Infeasible;
        F.Sev = Severity::Note;
        F.Refined = std::move(R);
        ++Sum.Suppressed;
        continue;
      }
    }

    if (Alts.empty()) {
      R.St = WitnessRefinement::Status::Unknown;
      R.Detail = Blocked.empty()
                     ? "trap condition has no difference-bound encoding"
                     : Blocked;
      F.Refined = std::move(R);
      ++Sum.Unknown;
      continue;
    }

    // (2) The bounded path search.
    std::vector<char> Can = canReach(G, *Order, F.Node);
    SearchResult SR = searchTrapPath(G, F, Alts, Can, Opts);
    R.Steps = SR.Steps;
    Sum.Steps += SR.Steps;

    if (SR.Found) {
      for (NodeId N : SR.State.Trail)
        R.Path.push_back({N, G[N].Line, G[N].label()});
      ArrivalSequence Arr =
          buildArrivals(SR.State, SR.TrapZone, Opts, R.Inputs);
      if (!Opts.Replay) {
        R.St = WitnessRefinement::Status::WitnessFound;
        F.Refined = std::move(R);
        ++Sum.WitnessOnly;
        continue;
      }
      if (!G.Root) {
        R.St = WitnessRefinement::Status::Unknown;
        R.Detail = "no program root available for replay";
        F.Refined = std::move(R);
        ++Sum.Unknown;
        continue;
      }
      ReplayOutcome Replay = replayOnMachine(G, Arr, Opts);
      if (Replay.Trapped && Replay.CheckId == F.CheckId) {
        R.St = WitnessRefinement::Status::Confirmed;
        R.TrapCheckId = Replay.CheckId;
        F.Sev = Severity::Error;
        F.Refined = std::move(R);
        ++Sum.Confirmed;
      } else {
        R.St = WitnessRefinement::Status::Unknown;
        R.Detail = Replay.Trapped
                       ? "replay trapped [" + Replay.CheckId +
                             "] instead of the finding's check-id"
                       : "replay did not reproduce the trap";
        F.Refined = std::move(R);
        ++Sum.Unknown;
      }
      continue;
    }

    // (3) No witness. A fully exhausted search — no cap, no budget
    // stop, no unresolved non-replayable candidate — enumerated every
    // trap-reaching path and pruned each by a zone infeasibility: a
    // proof, so suppress. Anything else is Unknown.
    if (!SR.CapHit && !SR.BudgetHit && SR.NonReplayableWhy.empty()) {
      R.St = WitnessRefinement::Status::Infeasible;
      R.Detail = "exhaustive path enumeration: every path to the node "
                 "refutes " +
                 describeAlts(Alts);
      F.Sev = Severity::Note;
      F.Refined = std::move(R);
      ++Sum.Suppressed;
      continue;
    }
    R.St = WitnessRefinement::Status::Unknown;
    if (!SR.NonReplayableWhy.empty())
      R.Detail = "a feasible trap path exists but is not replayable: " +
                 SR.NonReplayableWhy;
    else if (SR.BudgetHit)
      R.Detail = "path budget exhausted before a feasible trap path";
    else
      R.Detail = "visit cap hit before a feasible trap path";
    F.Refined = std::move(R);
    ++Sum.Unknown;
  }
  return Sum;
}
