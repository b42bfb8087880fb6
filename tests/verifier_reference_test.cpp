//===- tests/verifier_reference_test.cpp - The search against its oracle --===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The library's protocol model check (analysis/verifier.h), which keys
/// each state once in a flat store and stores a successor only when it
/// is new, against the string-keyed search it replaced
/// (tests/reference_verifier.h). Every Verdict field must agree: the
/// kind, both counters, the marker prefix field by field, the trail,
/// the diagnostic and the edge and node coverage. Inputs:
/// buildRosslProgram(N) for N = 1..64 and 256, examples/fds_run.rossl
/// at N = 1..4, the four mutant corpora at 2 and 3 sockets, a 100-loop
/// ladder, and seeded single edits of buildRosslProgram(N): one
/// statement deleted, duplicated or swapped with a neighbour, or one
/// constant perturbed, which reach violations and defects at many
/// depths. RPROSA_FUZZ_SEED picks a fresh set of edits; a failure
/// names it.
///
//===----------------------------------------------------------------------===//

#include "reference_verifier.h"
#include "test_util.h"

#include "analysis/mutants.h"
#include "caesium/parser.h"
#include "caesium/rossl_program.h"
#include "support/rng.h"

#include <gtest/gtest.h>

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

/// Compares every field of two verdicts; returns false on a mismatch
/// (the failures name \p What).
bool sameVerdict(const Verdict &Got, const Verdict &Want,
                 const std::string &What) {
  bool Ok = true;
  auto Check = [&Ok, &What](bool Equal, const char *Field) {
    EXPECT_TRUE(Equal) << What << ": " << Field << " differs";
    Ok &= Equal;
  };
  Check(Got.Kind == Want.Kind, "Kind");
  Check(Got.StatesExplored == Want.StatesExplored, "StatesExplored");
  Check(Got.TransitionsExplored == Want.TransitionsExplored,
        "TransitionsExplored");
  bool SamePrefix = Got.MarkerPrefix.size() == Want.MarkerPrefix.size();
  for (std::size_t I = 0; SamePrefix && I < Got.MarkerPrefix.size(); ++I) {
    const MarkerEvent &G = Got.MarkerPrefix[I], &W = Want.MarkerPrefix[I];
    SamePrefix = G.Kind == W.Kind && G.Socket == W.Socket &&
                 G.J.has_value() == W.J.has_value() &&
                 (!G.J || (G.J->Id == W.J->Id && G.J->Msg == W.J->Msg &&
                           G.J->Task == W.J->Task &&
                           G.J->Socket == W.J->Socket &&
                           G.J->ReadAt == W.J->ReadAt));
  }
  Check(SamePrefix, "MarkerPrefix");
  Check(Got.Trail == Want.Trail, "Trail");
  Check(Got.Diagnostic == Want.Diagnostic, "Diagnostic");
  Check(Got.EdgeCover == Want.EdgeCover, "EdgeCover");
  Check(Got.NodeVisited == Want.NodeVisited, "NodeVisited");
  if (!Ok)
    ADD_FAILURE() << What << "\nlibrary:   " << Got.describe()
                  << "\nreference: " << Want.describe();
  return Ok;
}

bool matchesReference(const Cfg &G, std::uint32_t N,
                      const std::string &What) {
  return sameVerdict(verifyProtocol(G, N), reference::verifyProtocol(G, N),
                     What + " (N=" + std::to_string(N) + ")");
}

cs::StmtPtr parseOrDie(const std::string &Src) {
  std::optional<cs::StmtPtr> P = cs::parseProgram(TA, Src);
  EXPECT_TRUE(P.has_value());
  return P ? *P : TA.seq({});
}

} // namespace

TEST(VerifierReference, RosslProgramAtEverySocketCount) {
  for (std::uint32_t N = 1; N <= 64; ++N)
    matchesReference(buildCfg(cs::buildRosslProgram(N)), N, "rossl");
  matchesReference(buildCfg(cs::buildRosslProgram(256)), 256, "rossl");
}

TEST(VerifierReference, ExampleSourceAtOneToFourSockets) {
  std::string Src =
      testutil::readTextFile(RPROSA_EXAMPLES_DIR "/fds_run.rossl");
  ASSERT_FALSE(Src.empty());
  Cfg G = buildCfg(parseOrDie(Src));
  for (std::uint32_t N = 1; N <= 4; ++N)
    matchesReference(G, N, "fds_run.rossl");
}

TEST(VerifierReference, MutantCorporaAtTwoAndThreeSockets) {
  for (std::uint32_t N : {2u, 3u})
    for (const std::vector<Mutant> &Corpus :
         {protocolMutantCorpus(N), timingMutantCorpus(N),
          valueRangeMutantCorpus(N), witnessMutantCorpus(N)})
      for (const Mutant &M : Corpus)
        matchesReference(buildCfg(M.Program), N, M.Name);
}

TEST(VerifierReference, LoopLadder) {
  matchesReference(buildCfg(parseOrDie(testutil::loopLadderSource(100))), 2,
                   "loops-100");
}

TEST(VerifierReference, SeededSingleEdits) {
  const std::uint64_t Seed = fuzzSeed(24);
  SplitMix64 Rng(Seed);
  std::size_t Violations = 0, Defects = 0, Failures = 0;
  for (int Round = 0; Round < EditsPerSeed && Failures < 3; ++Round) {
    const auto N = static_cast<std::uint32_t>(Rng.nextInRange(1, 6));
    cs::StmtPtr Base = cs::buildRosslProgram(N);
    const auto K = static_cast<EditKind>(Rng.nextInRange(0, 3));
    Editor Count(K, SIZE_MAX, 0);
    Count.stmt(Base);
    const std::size_t Sites = K == EditKind::Perturb ? Count.Lits : Count.Slots;
    ASSERT_GT(Sites, 0u);
    const std::size_t Target = Rng.nextInRange(0, Sites - 1);
    const auto Delta = static_cast<cs::Value>(Rng.nextInRange(1, 2)) *
                       (Rng.nextBernoulli(1, 2) ? 1 : -1);
    Editor Edit(K, Target, Delta);
    Cfg G = buildCfg(Edit.stmt(Base));
    Verdict Got = verifyProtocol(G, N);
    Violations += Got.Kind == VerdictKind::ProtocolViolation;
    Defects += Got.Kind == VerdictKind::Defect;
    if (!sameVerdict(Got, reference::verifyProtocol(G, N),
                     "edit " + std::to_string(Round) + " (kind " +
                         std::to_string(int(K)) + ", site " +
                         std::to_string(Target) + ", N=" +
                         std::to_string(N) +
                         "); replay: RPROSA_FUZZ_SEED=" +
                         std::to_string(Seed)))
      ++Failures;
  }
  // The edits must reach both failing verdicts, or the comparison says
  // little about counterexample trails.
  EXPECT_GT(Violations, 20u) << "replay: RPROSA_FUZZ_SEED=" << Seed;
  EXPECT_GT(Defects, 2u) << "replay: RPROSA_FUZZ_SEED=" << Seed;
}
