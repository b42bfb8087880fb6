//===- tests/label_reference_test.cpp - Labels and trails vs their oracle -===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The library's node labels and timing witness trails, which append
/// into the caller's buffer (CfgNode::appendLabel, appendNodeLabel) and
/// render each segment class's trail once into its final text, against
/// the operator+ renderings they replaced (tests/reference_labels.h).
/// For every node: label(), nodeLabel and nodeRef, and appendLabel
/// after existing text. For every program: TimingResult::describeTable
/// and each class's WitnessText, and for each timing mutant its
/// TimingDiff::Witness. All must match byte for byte. Inputs:
/// buildRosslProgram(N) for N = 1..64, examples/fds_run.rossl, the four
/// mutant corpora, the 100-, 1,000- and 2,000-loop ladders, a
/// hand-built CFG with every node kind and marker function at node ids
/// from 10^9 up and register and buffer ids of 4095, and seeded single
/// edits of the Rössl program. RPROSA_FUZZ_SEED picks a fresh set of
/// edits; a failure names it.
///
//===----------------------------------------------------------------------===//

#include "reference_labels.h"
#include "test_util.h"

#include "analysis/mutants.h"
#include "caesium/parser.h"
#include "caesium/rossl_program.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

using namespace rprosa;
using namespace rprosa::analysis;
using rprosa::testutil::EditKind;
using rprosa::testutil::Editor;
using rprosa::testutil::fuzzSeed;
namespace cs = rprosa::caesium;

static cs::AstArena &TA = rprosa::testutil::testArena();

namespace {

constexpr int EditsPerSeed = 300;

/// The end-to-end benchmark's timing parameters.
StaticCostParams timingParams() {
  StaticCostParams P;
  P.Wcets = BasicActionWcets::typicalDeployment();
  P.Instr = InstructionCosts::unit();
  P.MaxCallbackWcet = 10 * TickUs;
  return P;
}

/// The trail text of \p Trail as the oracle renders it: one
/// "  <nodeLabel>\n" line per node.
std::string referenceTrailText(const Cfg &G,
                               const std::vector<NodeId> &Trail) {
  std::string Out;
  for (const std::string &L : reference::renderTrail(G, Trail))
    Out += "  " + L + "\n";
  return Out;
}

/// Every node's label, nodeLabel and nodeRef, and appendLabel after a
/// prefix. False on the first mismatch (the failure names \p What and
/// the node).
bool labelsMatch(const Cfg &G, const std::string &What) {
  for (NodeId N = 0; N < G.size(); ++N) {
    const std::string Want = reference::label(G[N]);
    std::string Appended = "prefix ";
    G[N].appendLabel(Appended);
    const bool Ok = G[N].label() == Want && Appended == "prefix " + Want &&
                    nodeLabel(G, N) == reference::nodeLabel(N, G[N]) &&
                    nodeRef(G, N) == reference::nodeRef(G, N);
    EXPECT_TRUE(Ok) << What << ": n" << N << " renders as '"
                    << G[N].label() << "', the oracle as '" << Want << "'";
    if (!Ok)
      return false;
  }
  return true;
}

/// describeTable and every class's WitnessText of \p G's timing
/// analysis at \p Sockets against the oracle; false on a mismatch.
bool timingMatches(const Cfg &G, std::uint32_t Sockets,
                   const std::string &What) {
  const TimingResult R = analyzeTiming(G, timingParams(), Sockets);
  bool Ok = true;
  for (const SegmentBound &S : R.Segments) {
    const bool Same = S.WitnessText == referenceTrailText(G, S.WitnessMax);
    EXPECT_TRUE(Same) << What << ": " << toString(S.Class)
                      << " trail differs";
    Ok &= Same;
  }
  const std::string Table = R.describeTable();
  const std::string Want = reference::describeTable(R, G);
  EXPECT_EQ(Table, Want) << What << ": describeTable differs";
  return Ok && Table == Want;
}

bool matchesReference(const Cfg &G, std::uint32_t Sockets,
                      const std::string &What) {
  const bool Labels = labelsMatch(G, What);
  return timingMatches(G, Sockets, What) && Labels;
}

Cfg parseCfg(const std::string &Src) {
  std::optional<cs::StmtPtr> P = cs::parseProgram(TA, Src);
  EXPECT_TRUE(P.has_value());
  return buildCfg(P ? *P : TA.seq({}));
}

} // namespace

TEST(LabelReference, RosslProgramAtEverySocketCount) {
  for (std::uint32_t N = 1; N <= 64; ++N)
    matchesReference(buildCfg(cs::buildRosslProgram(N)), N,
                     "rossl(" + std::to_string(N) + ")");
}

TEST(LabelReference, ExampleSource) {
  const std::string Src =
      testutil::readTextFile(RPROSA_EXAMPLES_DIR "/fds_run.rossl");
  ASSERT_FALSE(Src.empty());
  matchesReference(parseCfg(Src), 2, "fds_run.rossl");
}

TEST(LabelReference, MutantCorpora) {
  // At the socket counts the end-to-end benchmark checks them at.
  for (const Mutant &M : protocolMutantCorpus(2))
    matchesReference(buildCfg(M.Program), 2, M.Name);
  for (const Mutant &M : timingMutantCorpus(2))
    matchesReference(buildCfg(M.Program), 2, M.Name);
  for (const Mutant &M : valueRangeMutantCorpus(3))
    matchesReference(buildCfg(M.Program), 3, M.Name);
  for (const Mutant &M : witnessMutantCorpus(3))
    matchesReference(buildCfg(M.Program), 3, M.Name);
}

TEST(LabelReference, TimingMutantWitnesses) {
  const TimingResult Ref =
      analyzeTiming(buildCfg(cs::buildRosslProgram(2)), timingParams(), 2);
  for (const Mutant &M : timingMutantCorpus(2)) {
    const Cfg G = buildCfg(M.Program);
    const TimingResult Got = analyzeTiming(G, timingParams(), 2);
    const std::vector<TimingDiff> Diffs = diffTiming(Ref, Got);
    ASSERT_FALSE(Diffs.empty()) << M.Name;
    for (const TimingDiff &D : Diffs)
      EXPECT_EQ(D.Witness,
                referenceTrailText(G, Got.seg(D.Class).WitnessMax))
          << M.Name << " / " << toString(D.Class);
  }
}

TEST(LabelReference, LoopLadders) {
  for (std::uint32_t Loops : {100u, 1000u, 2000u})
    matchesReference(parseCfg(testutil::loopLadderSource(Loops)), 2,
                     "loops-" + std::to_string(Loops));
}

TEST(LabelReference, HandBuiltNodesAtTheEdges) {
  // Every node kind and marker function, with register and buffer ids
  // at the parser's cap of 4095 and literals at the int64 extremes.
  using Kind = CfgNode::Kind;
  const cs::ExprPtr Wide = TA.add(
      TA.reg(4095),
      TA.sub(TA.lit(INT64_MIN),
             TA.divE(TA.lit(INT64_MAX),
                     TA.modE(TA.notE(TA.eq(TA.reg(0), TA.fuel())),
                             TA.less(TA.lit(-1), TA.reg(4094))))));
  std::vector<CfgNode> Nodes;
  auto Add = [&Nodes](Kind K) -> CfgNode & {
    Nodes.emplace_back();
    Nodes.back().K = K;
    Nodes.back().Dst = 4095;
    Nodes.back().Reg = 4095;
    Nodes.back().Buf = 4095;
    return Nodes.back();
  };
  Add(Kind::Entry);
  Add(Kind::Exit);
  Add(Kind::Assign).E = Wide;
  Add(Kind::Branch).E = Wide;
  Add(Kind::Read);
  for (cs::TraceFn Fn : {cs::TraceFn::TrSelection, cs::TraceFn::TrDisp,
                         cs::TraceFn::TrExec, cs::TraceFn::TrCompl,
                         cs::TraceFn::TrIdling})
    Add(Kind::Trace).Fn = Fn;
  Add(Kind::Enqueue);
  Add(Kind::Dequeue);
  Add(Kind::Free);
  Add(Kind::Read).Dst = 0;

  for (const NodeId Base : {NodeId{1000000000}, NodeId{4294967280u}})
    for (std::size_t I = 0; I < Nodes.size(); ++I) {
      const auto Id = static_cast<NodeId>(Base + I);
      std::string Got = "prefix ";
      appendNodeLabel(Id, Nodes[I], Got);
      EXPECT_EQ(Got, "prefix " + reference::nodeLabel(Id, Nodes[I]));
    }

  Cfg G;
  G.Nodes = Nodes;
  G.Exit = 1;
  labelsMatch(G, "hand-built");
  EXPECT_EQ(G.numRegs(), 4096u);
  EXPECT_EQ(G.numBufs(), 4096u);
}

TEST(LabelReference, SeededSingleEdits) {
  const std::uint64_t Seed = fuzzSeed(27);
  SplitMix64 Rng(Seed);
  std::size_t Failures = 0;
  for (int Round = 0; Round < EditsPerSeed && Failures < 3; ++Round) {
    const auto N = static_cast<std::uint32_t>(Rng.nextInRange(1, 6));
    const cs::StmtPtr Base = cs::buildRosslProgram(N);
    const auto K = static_cast<EditKind>(Rng.nextInRange(0, 3));
    Editor Count(K, SIZE_MAX, 0);
    Count.stmt(Base);
    const std::size_t Sites = K == EditKind::Perturb ? Count.Lits : Count.Slots;
    ASSERT_GT(Sites, 0u);
    const std::size_t Target = Rng.nextInRange(0, Sites - 1);
    const auto Delta = static_cast<cs::Value>(Rng.nextInRange(1, 2)) *
                       (Rng.nextBernoulli(1, 2) ? 1 : -1);
    Editor Edit(K, Target, Delta);
    if (!matchesReference(
            buildCfg(Edit.stmt(Base)), N,
            "edit " + std::to_string(Round) + " of rossl(" +
                std::to_string(N) + ") (kind " + std::to_string(int(K)) +
                ", site " + std::to_string(Target) +
                "); replay: RPROSA_FUZZ_SEED=" + std::to_string(Seed)))
      ++Failures;
  }
}
