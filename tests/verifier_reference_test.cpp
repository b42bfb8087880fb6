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
/// depths. The same programs renumbered onto 33 or 34 registers and 5
/// or 4 buffers (the wide programs) make the key's bit string of
/// register kinds, job flag and buffer fills span two words, so the
/// search's decoding of a stored state is checked across the word
/// boundary. RPROSA_FUZZ_SEED picks a fresh set of edits; a failure
/// names it.
///
//===----------------------------------------------------------------------===//

#include "reference_verifier.h"
#include "test_util.h"

#include "analysis/mutants.h"
#include "caesium/parser.h"
#include "caesium/print.h"
#include "caesium/rossl_program.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <utility>
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

/// The register and buffer shifts of the wide programs. The Rössl
/// program uses r0..r3 and buf0..buf1, so these give 33 registers and 5
/// buffers (the read result's kind is the last field of the key's first
/// bit word) or 34 and 4 (it is the first field of the second).
constexpr std::pair<std::uint32_t, std::uint32_t> WideShifts[] = {{29, 3},
                                                                  {30, 2}};

/// \p P renumbered onto wider register and buffer files.
cs::StmtPtr renumbered(const cs::StmtPtr &P,
                       std::pair<std::uint32_t, std::uint32_t> Shift) {
  return parseOrDie(testutil::renumberedSource(cs::printStmt(*P),
                                               Shift.first, Shift.second));
}

/// EditsPerSeed seeded single edits, each of BaseOf(N, Round) for a
/// random N in 1..6, checked against the reference. The edits must
/// reach both failing verdicts, or the comparison says little about
/// counterexample trails.
void checkSeededEdits(
    std::uint64_t Seed,
    const std::function<cs::StmtPtr(std::uint32_t, int)> &BaseOf) {
  SplitMix64 Rng(Seed);
  std::size_t Violations = 0, Defects = 0, Failures = 0;
  for (int Round = 0; Round < EditsPerSeed && Failures < 3; ++Round) {
    const auto N = static_cast<std::uint32_t>(Rng.nextInRange(1, 6));
    cs::StmtPtr Base = BaseOf(N, Round);
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
  EXPECT_GT(Violations, 20u) << "replay: RPROSA_FUZZ_SEED=" << Seed;
  EXPECT_GT(Defects, 2u) << "replay: RPROSA_FUZZ_SEED=" << Seed;
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
  checkSeededEdits(fuzzSeed(24), [](std::uint32_t N, int) {
    return cs::buildRosslProgram(N);
  });
}

TEST(VerifierReference, WideProgramsAcrossTheKeyWordBoundary) {
  for (const auto &Shift : WideShifts) {
    for (std::uint32_t N = 1; N <= 8; ++N) {
      Cfg G = buildCfg(renumbered(cs::buildRosslProgram(N), Shift));
      ASSERT_GE(G.numRegs(), 33u);
      ASSERT_GE(G.numBufs(), 4u);
      ASSERT_GT(2 * G.numRegs() + 1 + G.numBufs(), 64u);
      matchesReference(G, N, "wide rossl");
    }
    for (std::uint32_t N : {2u, 3u})
      for (const std::vector<Mutant> &Corpus :
           {protocolMutantCorpus(N), timingMutantCorpus(N),
            valueRangeMutantCorpus(N), witnessMutantCorpus(N)})
        for (const Mutant &M : Corpus)
          matchesReference(buildCfg(renumbered(M.Program, Shift)), N,
                           "wide " + M.Name);
  }
}

TEST(VerifierReference, SeededSingleEditsOfWidePrograms) {
  // Both shifts of the Rössl program at 1..6 sockets, renumbered once.
  std::vector<cs::StmtPtr> Bases;
  for (const auto &Shift : WideShifts)
    for (std::uint32_t N = 1; N <= 6; ++N)
      Bases.push_back(renumbered(cs::buildRosslProgram(N), Shift));
  checkSeededEdits(fuzzSeed(26), [&Bases](std::uint32_t N, int Round) {
    return Bases[(Round % 2) * 6 + N - 1];
  });
}
