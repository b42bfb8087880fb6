//===- analysis/timing/loop_bounds.cpp ------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/timing/loop_bounds.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::caesium;

namespace {

/// Matches `reg(R) + c` / `c + reg(R)` with literal c >= 1.
std::optional<Value> positiveStep(const Expr &E, RegId R) {
  if (E.K != Expr::Kind::Add || !E.L || !E.R)
    return std::nullopt;
  const Expr *Lit = nullptr;
  if (E.L->K == Expr::Kind::Reg && E.L->Reg == R &&
      E.R->K == Expr::Kind::Lit)
    Lit = E.R;
  else if (E.R->K == Expr::Kind::Reg && E.R->Reg == R &&
           E.L->K == Expr::Kind::Lit)
    Lit = E.L;
  if (!Lit || Lit->Lit < 1)
    return std::nullopt;
  return Lit->Lit;
}

/// Every write to one register, program-wide.
struct RegWrites {
  std::uint32_t NonAssign = 0;  ///< Read / Dequeue results.
  std::uint32_t NonLiteral = 0; ///< Assigns of anything but a literal.
  bool AnyLiteral = false;
  Value MinLiteral = 0; ///< Smallest literal assigned (AnyLiteral only).
};

/// The Assign writes to one register inside one component.
struct CycleWrites {
  std::uint32_t Count = 0;
  std::uint32_t Steps = 0; ///< Writes matching positiveStep.
  Value MinStep = 0;       ///< Smallest step (Steps > 0 only).
};

std::uint64_t cycleKey(std::uint32_t Component, RegId R) {
  return static_cast<std::uint64_t>(Component) << 32 | R;
}

/// The counter pattern: the condition is `reg(R) < K` (literal K); the
/// register is only ever written by Assign nodes (never a Read or
/// Dequeue result); every in-cycle write adds a positive literal; every
/// out-of-cycle write is a literal. The trip bound then follows from
/// the smallest possible entry value and the smallest step.
std::optional<std::uint64_t>
counterBound(const Expr &Cond, const std::vector<RegWrites> &Totals,
             const std::unordered_map<std::uint64_t, CycleWrites> &InCycle,
             std::uint32_t Component) {
  if (Cond.K != Expr::Kind::Less || !Cond.L || !Cond.R ||
      Cond.L->K != Expr::Kind::Reg || Cond.R->K != Expr::Kind::Lit)
    return std::nullopt;
  RegId R = Cond.L->Reg;
  Value K = Cond.R->Lit;

  const RegWrites &All = Totals[R];
  auto It = InCycle.find(cycleKey(Component, R));
  if (All.NonAssign > 0 || It == InCycle.end())
    return std::nullopt; // Data-dependent, or no in-cycle write at all.
  const CycleWrites &W = It->second;
  // Every in-cycle write must be a step. Steps are not literals, so the
  // in-cycle writes are then exactly W.Count of the non-literal ones,
  // and any other non-literal write lies outside the cycle.
  if (W.Steps != W.Count || All.NonLiteral != W.Count)
    return std::nullopt;
  // Every literal write thus lies outside the cycle. Registers
  // zero-fill, so with no outside write the entry value is 0; with
  // outside writes the smallest literal is the worst case (the
  // zero-fill path may additionally apply if some path skips them, so
  // keep the minimum with 0 unless every path is dominated — we don't
  // track dominance and conservatively include 0 whenever the register
  // could be unwritten, i.e. always).
  Value Entry = All.AnyLiteral ? std::min<Value>(All.MinLiteral, 0) : 0;
  if (Entry >= K)
    return 0; // May still enter via Maybe; one trip per re-test at most.
  std::uint64_t Span = static_cast<std::uint64_t>(K - Entry);
  std::uint64_t Step = static_cast<std::uint64_t>(W.MinStep);
  return (Span + Step - 1) / Step;
}

} // namespace

std::vector<LoopBound> rprosa::analysis::inferLoopBounds(const Cfg &G) {
  const CycleComponents Comps = cycleComponents(G);
  // One pass over the nodes gathers everything the heads ask about:
  // each cyclic component's members (ascending, shared by its heads)
  // and marker flag, each register's writes, and the Assign writes per
  // (component, register).
  std::vector<std::shared_ptr<std::vector<NodeId>>> Members(Comps.size());
  std::vector<bool> HasMarker(Comps.size(), false);
  std::vector<RegWrites> Totals(G.numRegs());
  std::unordered_map<std::uint64_t, CycleWrites> InCycle;
  for (NodeId N = 0; N < G.size(); ++N) {
    const CfgNode &Node = G[N];
    const std::uint32_t C = Comps.Of[N];
    if (Node.K == CfgNode::Kind::Read || Node.K == CfgNode::Kind::Dequeue) {
      ++Totals[Node.Dst].NonAssign;
    } else if (Node.K == CfgNode::Kind::Assign) {
      RegWrites &T = Totals[Node.Dst];
      if (Node.E->K == Expr::Kind::Lit) {
        T.MinLiteral =
            T.AnyLiteral ? std::min(T.MinLiteral, Node.E->Lit) : Node.E->Lit;
        T.AnyLiteral = true;
      } else {
        ++T.NonLiteral;
      }
      if (Comps.Cyclic[C]) {
        CycleWrites &W = InCycle[cycleKey(C, Node.Dst)];
        ++W.Count;
        if (std::optional<Value> Step = positiveStep(*Node.E, Node.Dst)) {
          W.MinStep = W.Steps ? std::min(W.MinStep, *Step) : *Step;
          ++W.Steps;
        }
      }
    }
    if (!Comps.Cyclic[C])
      continue;
    if (!Members[C])
      Members[C] = std::make_shared<std::vector<NodeId>>();
    Members[C]->push_back(N);
    if (Node.K == CfgNode::Kind::Read || Node.K == CfgNode::Kind::Trace)
      HasMarker[C] = true;
  }

  std::vector<LoopBound> Out;
  for (NodeId N = 0; N < G.size(); ++N) {
    const std::uint32_t C = Comps.Of[N];
    if (G[N].K != CfgNode::Kind::Branch || !Comps.Cyclic[C])
      continue; // Not on any cycle.
    LoopBound L;
    L.Head = N;
    L.CycleNodes = Members[C];
    L.ContainsMarker = HasMarker[C];
    L.FuelGoverned = G[N].E && mentionsFuel(*G[N].E);
    if (std::optional<std::uint64_t> Trips =
            counterBound(*G[N].E, Totals, InCycle, C)) {
      L.HasCounterBound = true;
      L.MaxTrips = *Trips;
    }
    Out.push_back(std::move(L));
  }
  return Out;
}

std::string LoopBound::describe(const Cfg &G) const {
  std::string S = "n" + std::to_string(Head) + " [" + G[Head].label() + "]: ";
  if (FuelGoverned)
    S += "fuel-governed";
  else if (HasCounterBound)
    S += "counter-bounded, <= " + std::to_string(MaxTrips) + " trips";
  else if (ContainsMarker)
    S += "marker-carrying";
  else
    S += "UNBOUNDED (no fuel, no marker, no counter pattern)";
  if (ContainsMarker && (FuelGoverned || HasCounterBound))
    S += ", marker-carrying";
  return S;
}
