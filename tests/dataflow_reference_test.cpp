//===- tests/dataflow_reference_test.cpp - The engine against its oracle --===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The library's dataflow engine (analysis/dataflow/engine.h), which
/// pops a bit-set worklist and writes every state in place into storage
/// it keeps across iterations, against the by-value loop it replaced
/// (tests/reference_dataflow.h), which pops a min-heap and builds a
/// fresh state for every transfer, edge flow and join. For the
/// value-range, definite-init, marker-discipline and zone domains and
/// the backward liveness instance, every node's In and Out state must
/// agree (reachability always, the payload whenever the state is
/// reached: an unreached state's payload is never read), and so must
/// NodeVisits and Converged; the library's CfgOrder must equal the
/// order computed as before, field by field. Each input is solved with
/// the default options, with widening from the first head change, and
/// with a one-sweep budget that stops most loops unconverged (a seeded
/// edit under one of the three, in turn). Inputs:
/// buildRosslProgram(N) for N = 1..64, examples/fds_run.rossl at 1..4
/// sockets, the four mutant corpora at 2 and 3 sockets, the 100-, 1,000-
/// and 2,000-loop ladders, a program over 71 registers and 4 buffers
/// (its definite-init bits span two words), the Rössl program over 8,
/// 9, 62, 63 and 127 registers (the edges of the states' inline storage
/// and of definite-init's words), and seeded single edits of the Rössl
/// program and of that wide program. RPROSA_FUZZ_SEED picks a fresh set
/// of edits; a failure names it.
///
//===----------------------------------------------------------------------===//

#include "reference_dataflow.h"
#include "test_util.h"

#include "analysis/dataflow/analyses.h"
#include "analysis/dataflow/interval.h"
#include "analysis/dataflow/zone.h"
#include "analysis/mutants.h"
#include "caesium/parser.h"
#include "caesium/print.h"
#include "caesium/rossl_program.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::analysis::dataflow;
using rprosa::testutil::EditKind;
using rprosa::testutil::Editor;
using rprosa::testutil::fuzzSeed;
namespace cs = rprosa::caesium;

static cs::AstArena &TA = rprosa::testutil::testArena();

namespace {

constexpr int EditsPerSeed = 300;

/// The solver settings every input is run under: the defaults, widening
/// at a head's first change, and a budget of one transfer per node.
const SolveOptions OptionSets[] = {{}, {0, 4096}, {1, 1}};

bool sameState(const RangeState &A, const RangeState &B) {
  return A.Reachable == B.Reachable && (!A.Reachable || A.Regs == B.Regs);
}
bool sameState(const ZoneState &A, const ZoneState &B) {
  return A.Reachable == B.Reachable && (!A.Reachable || A.Z == B.Z);
}
bool sameState(const InitState &A, const InitState &B) {
  return A.Reachable == B.Reachable && (!A.Reachable || A.Unset == B.Unset);
}
bool sameState(const MarkerState &A, const MarkerState &B) {
  return A.Reachable == B.Reachable &&
         (!A.Reachable ||
          (A.MayOpen == B.MayOpen && A.MayClosed == B.MayClosed));
}
bool sameState(const std::vector<bool> &A, const std::vector<bool> &B) {
  return A == B;
}

/// Compares two solutions node by node; false on a mismatch (the
/// failure names \p What and the first node that differs).
template <class State>
bool sameSolution(const Solution<State> &Got, const Solution<State> &Want,
                  const std::string &What) {
  bool Ok = Got.Converged == Want.Converged &&
            Got.NodeVisits == Want.NodeVisits &&
            Got.In.size() == Want.In.size() &&
            Got.Out.size() == Want.Out.size();
  EXPECT_TRUE(Ok) << What << ": Converged " << Got.Converged << " vs "
                  << Want.Converged << ", NodeVisits " << Got.NodeVisits
                  << " vs " << Want.NodeVisits;
  for (NodeId N = 0; Ok && N < Got.In.size(); ++N) {
    Ok = sameState(Got.In[N], Want.In[N]);
    EXPECT_TRUE(Ok) << What << ": In[n" << N << "] differs";
    Ok = Ok && sameState(Got.Out[N], Want.Out[N]);
    EXPECT_TRUE(Ok) << What << ": Out[n" << N << "] differs";
  }
  return Ok;
}

bool sameOrder(const CfgOrder &Got, const reference::ReferenceOrder &Want,
               const std::string &What) {
  bool Ok = Got.Rpo == Want.Rpo && Got.RpoIndex == Want.RpoIndex &&
            Got.LoopHead == Want.LoopHead &&
            Got.Reachable == Want.Reachable &&
            Got.PredStart.size() == Want.Preds.size() + 1;
  for (NodeId N = 0; Ok && N < Want.Preds.size(); ++N) {
    std::span<const NodeId> P = Got.preds(N);
    Ok = std::equal(P.begin(), P.end(), Want.Preds[N].begin(),
                    Want.Preds[N].end());
  }
  EXPECT_TRUE(Ok) << What << ": CfgOrder differs";
  return Ok;
}

/// Solves every domain over \p G with both engines under each of
/// \p Options; \p Sockets parameterises the zone domain. False on a
/// mismatch.
bool matchesReference(const Cfg &G, std::uint32_t Sockets,
                      const std::string &What,
                      std::span<const SolveOptions> Options = OptionSets) {
  const CfgOrder Order = CfgOrder::compute(G);
  const reference::ReferenceOrder RefOrder = reference::computeOrder(G);
  bool Ok = sameOrder(Order, RefOrder, What);
  for (const SolveOptions &Opts : Options) {
    const std::string Where = What + " (WidenAfter " +
                              std::to_string(Opts.WidenAfter) +
                              ", MaxRounds " +
                              std::to_string(Opts.MaxRounds) + ")";
    auto Both = [&](const auto &Dom, const char *Name,
                    Direction Dir = Direction::Forward) {
      Ok = sameSolution(solve(G, Dom, Order, Dir, Opts),
                        reference::solve(G, Dom, RefOrder, Dir, Opts),
                        Where + ", " + Name) &&
           Ok;
    };
    Both(RangeDomain(G.numRegs()), "value-range");
    Both(InitDomain(G.numRegs(), G.numBufs()), "definite-init");
    Both(MarkerDomain{}, "marker-discipline");
    Both(ZoneDomain(G.numRegs(), Sockets), "zone");
    Both(reference::LiveDomain(G.numRegs()), "liveness",
         Direction::Backward);
  }
  return Ok;
}

cs::StmtPtr parseOrDie(const std::string &Src) {
  std::optional<cs::StmtPtr> P = cs::parseProgram(TA, Src);
  EXPECT_TRUE(P.has_value());
  return P ? *P : TA.seq({});
}

/// The 2-socket Rössl program over registers r61..r64 and buffers
/// buf2..buf3, after a line that reads the never-written r69 into r70:
/// 71 registers and 4 buffers, so definite-init's 75 bits span two
/// words, with used registers on both sides of the boundary.
cs::StmtPtr wideProgram() {
  return parseOrDie(
      "r70 = (r69 + 1);\n" +
      testutil::renumberedSource(cs::printStmt(*cs::buildRosslProgram(2)),
                                 61, 2));
}

} // namespace

TEST(DataflowReference, RosslProgramAtEverySocketCount) {
  for (std::uint32_t N = 1; N <= 64; ++N)
    matchesReference(buildCfg(cs::buildRosslProgram(N)), N,
                     "rossl(" + std::to_string(N) + ")");
}

TEST(DataflowReference, ExampleSourceAtOneToFourSockets) {
  std::string Src =
      testutil::readTextFile(RPROSA_EXAMPLES_DIR "/fds_run.rossl");
  ASSERT_FALSE(Src.empty());
  Cfg G = buildCfg(parseOrDie(Src));
  for (std::uint32_t N = 1; N <= 4; ++N)
    matchesReference(G, N, "fds_run.rossl at " + std::to_string(N));
}

TEST(DataflowReference, MutantCorporaAtTwoAndThreeSockets) {
  for (std::uint32_t N : {2u, 3u})
    for (const std::vector<Mutant> &Corpus :
         {protocolMutantCorpus(N), timingMutantCorpus(N),
          valueRangeMutantCorpus(N), witnessMutantCorpus(N)})
      for (const Mutant &M : Corpus)
        matchesReference(buildCfg(M.Program), N,
                         M.Name + " at " + std::to_string(N));
}

TEST(DataflowReference, LoopLadders) {
  for (std::uint32_t Loops : {100u, 1000u, 2000u})
    matchesReference(buildCfg(parseOrDie(testutil::loopLadderSource(Loops))),
                     2, "loops-" + std::to_string(Loops));
}

TEST(DataflowReference, WideProgramSpansTwoInitWords) {
  Cfg G = buildCfg(wideProgram());
  ASSERT_GE(G.numRegs(), 70u);
  ASSERT_GT(G.numRegs() + G.numBufs(), 64u);
  matchesReference(G, 2, "wide");
  // r69 sits in the second word and is never written, while the
  // polling registers r61..r63 sit in the first and are each written
  // before any read.
  std::vector<Finding> Fs = analyzeDefiniteInit(G);
  ASSERT_EQ(Fs.size(), 1u);
  EXPECT_NE(Fs[0].Message.find("register r69 "), std::string::npos)
      << Fs[0].Message;
}

TEST(DataflowReference, ProgramsAtTheStateLayoutEdges) {
  // The 2-socket Rössl program (4 registers, 2 buffers) renumbered onto
  // wider register files: a range state of 8 intervals fills its inline
  // storage and one of 9 moves to the heap; definite-init's 64 bits fill
  // one word exactly, 65 spill one bit into a second, and 129 outgrow
  // the two inline words.
  const std::string Base = cs::printStmt(*cs::buildRosslProgram(2));
  struct Edge {
    std::uint32_t RegShift, Regs;
  };
  for (const Edge &E : {Edge{4, 8}, Edge{5, 9}, Edge{58, 62}, Edge{59, 63},
                        Edge{123, 127}}) {
    const Cfg G =
        buildCfg(parseOrDie(testutil::renumberedSource(Base, E.RegShift, 0)));
    ASSERT_EQ(G.numRegs(), E.Regs);
    ASSERT_EQ(G.numBufs(), 2u);
    matchesReference(G, 2,
                     "rossl(2) over " + std::to_string(E.Regs) + " registers");
  }
}

TEST(DataflowReference, SeededSingleEdits) {
  const std::uint64_t Seed = fuzzSeed(26);
  SplitMix64 Rng(Seed);
  const cs::StmtPtr Wide = wideProgram();
  std::size_t Failures = 0;
  for (int Round = 0; Round < EditsPerSeed && Failures < 3; ++Round) {
    // Bases 1..6 are the Rössl program at that many sockets; 0 is the
    // wide program at two.
    const auto Pick = static_cast<std::uint32_t>(Rng.nextInRange(0, 6));
    const std::uint32_t N = Pick == 0 ? 2 : Pick;
    const cs::StmtPtr Base = Pick == 0 ? Wide : cs::buildRosslProgram(Pick);
    const auto K = static_cast<EditKind>(Rng.nextInRange(0, 3));
    Editor Count(K, SIZE_MAX, 0);
    Count.stmt(Base);
    const std::size_t Sites = K == EditKind::Perturb ? Count.Lits : Count.Slots;
    ASSERT_GT(Sites, 0u);
    const std::size_t Target = Rng.nextInRange(0, Sites - 1);
    const auto Delta = static_cast<cs::Value>(Rng.nextInRange(1, 2)) *
                       (Rng.nextBernoulli(1, 2) ? 1 : -1);
    Editor Edit(K, Target, Delta);
    // One option set per edit, in turn.
    if (!matchesReference(
            buildCfg(Edit.stmt(Base)), N,
            "edit " + std::to_string(Round) + " of " +
                (Pick == 0 ? std::string("the wide program")
                           : "rossl(" + std::to_string(N) + ")") +
                " (kind " + std::to_string(int(K)) + ", site " +
                std::to_string(Target) +
                "); replay: RPROSA_FUZZ_SEED=" + std::to_string(Seed),
            std::span(OptionSets).subspan(Round % 3, 1)))
      ++Failures;
  }
}
