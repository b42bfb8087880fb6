//===- perfbench/src/static_verify.cpp - Workload static_verify -----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One op takes one (program, task set) pair through the whole static
/// pipeline: parseProgram from source text, buildCfg, verifyProtocol,
/// runLints, runUnifiedAnalyses, refineFindings (with replay), then —
/// for protocol-clean programs with bounded segments — analyzeTiming,
/// toRtaInputs into analyzeNpfp, and analyzeExact on the derived
/// effectiveWcets.
///
/// Programs: examples/fds_run.rossl, the printed buildRosslProgram(N) for
/// N = 1..64, the four mutant corpora (printed), and a size ladder of
/// protocol-clean programs with 10^2 to 2*10^3 counted loops spliced into
/// the dispatch segment. Task sets are small seeded µs-scale systems
/// (2-5 tasks, 1-3 sockets, SAG horizon 10-40 µs, zero or nonzero
/// release jitter). All caesium / analysis / sag work happens here, and
/// the RTA runs as one cold analysis per op rather than a warm sweep.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include "analysis/cfg.h"
#include "analysis/dataflow/analyses.h"
#include "analysis/dataflow/witness.h"
#include "analysis/lint.h"
#include "analysis/mutants.h"
#include "analysis/timing/loop_bounds.h"
#include "analysis/timing/segment_costs.h"
#include "analysis/verifier.h"
#include "caesium/parser.h"
#include "caesium/print.h"
#include "caesium/rossl_program.h"
#include "rta/rta_npfp.h"
#include "sag/explore.h"
#include "support/rng.h"

#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace perfbench;
namespace df = rprosa::analysis::dataflow;

namespace {

/// Counted loops spliced into the dispatch segment, one program each.
constexpr std::uint32_t LoopLadder[] = {100, 200, 350, 500, 1000, 2000};
/// The mutant corpora's socket counts (those rp_verify and the
/// bug-detection experiment check them at).
constexpr std::uint32_t ProtocolSockets = 2;
constexpr std::uint32_t RangeSockets = 3;

enum class Expect : std::uint8_t {
  Clean,    ///< Verifies, every segment bounded.
  Protocol, ///< Rejected by verifyProtocol.
  Timing,   ///< Verifies, diffTiming against the reference flags it.
  Range,    ///< A finding under ExpectedCheckId.
  Witness,  ///< Refinement reaches ExpectedRefinement.
};

struct Program {
  std::string Name;
  std::string Source;
  std::uint32_t NumSockets = 2;
  Expect Kind = Expect::Clean;
  std::string CheckId;
  std::string Refinement;
};

struct TaskCase {
  TaskSet Tasks;
  std::uint32_t NumSockets = 1;
  SagConfig Sag;
};

StaticCostParams timingParams() {
  StaticCostParams P;
  P.Wcets = BasicActionWcets::typicalDeployment();
  P.Instr = InstructionCosts::unit();
  P.MaxCallbackWcet = 10 * TickUs;
  return P;
}

/// The printed 2-socket program with \p Loops counted loops after the
/// dispatch marker: protocol-clean, a longer dispatch segment.
std::string loopLadderProgram(std::uint32_t Loops) {
  std::string Base = caesium::printStmt(*caesium::buildRosslProgram(2));
  std::size_t At = Base.find("dispatch_start(");
  if (At == std::string::npos)
    throw std::runtime_error("printed program has no dispatch marker");
  std::size_t LineStart = Base.rfind('\n', At) + 1;
  std::string Indent = Base.substr(LineStart, At - LineStart);
  std::size_t LineEnd = Base.find('\n', At) + 1;
  std::string Splice;
  for (std::uint32_t I = 0; I < Loops; ++I)
    Splice += Indent + "r5 = 0;\n" + Indent + "while ((r5 < 4)) {\n" +
              Indent + "  r5 = (r5 + 1);\n" + Indent + "}\n";
  return Base.substr(0, LineEnd) + Splice + Base.substr(LineEnd);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot open " + Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The program corpus: fixed, independent of the seed.
std::vector<Program> buildCorpus() {
  std::vector<Program> Out;
  Out.push_back({"fds_run.rossl", readFile("examples/fds_run.rossl"), 2,
                 Expect::Clean, "", ""});
  for (std::uint32_t N = 1; N <= 64; ++N)
    Out.push_back({"rossl-" + std::to_string(N),
                   caesium::printStmt(*caesium::buildRosslProgram(N)), N,
                   Expect::Clean, "", ""});
  auto AddCorpus = [&Out](const std::vector<Mutant> &Ms, std::uint32_t N,
                          Expect K) {
    for (const Mutant &M : Ms)
      Out.push_back({M.Name, caesium::printStmt(*M.Program), N, K,
                     M.ExpectedCheckId, M.ExpectedRefinement});
  };
  AddCorpus(protocolMutantCorpus(ProtocolSockets), ProtocolSockets,
            Expect::Protocol);
  AddCorpus(timingMutantCorpus(ProtocolSockets), ProtocolSockets,
            Expect::Timing);
  AddCorpus(valueRangeMutantCorpus(RangeSockets), RangeSockets,
            Expect::Range);
  AddCorpus(witnessMutantCorpus(RangeSockets), RangeSockets,
            Expect::Witness);
  for (std::uint32_t L : LoopLadder)
    Out.push_back({"loops-" + std::to_string(L), loopLadderProgram(L), 2,
                   Expect::Clean, "", ""});
  return Out;
}

/// The small µs-scale system paired with program \p Index, for the RTA
/// and the exact test. Its shape follows the index (2-5 tasks, 1-3
/// sockets, a 10-40 µs SAG horizon, zero or nonzero release jitter); the
/// seed perturbs periods, WCETs and the jitter.
TaskCase makeTaskCase(SplitMix64 &Rng, std::size_t Index) {
  TaskCase C;
  const std::uint32_t N = 2 + Index % 4;
  C.NumSockets = 1 + Index % 3;
  for (std::uint32_t I = 0; I < N; ++I) {
    const Duration Period =
        static_cast<Duration>((4 + 3 * I) * TickUs * perturb(Rng, 0.1));
    const Duration Wcet = static_cast<Duration>(600 * perturb(Rng, 0.3));
    ArrivalCurvePtr Curve =
        I % 2 ? ArrivalCurvePtr(std::make_shared<LeakyBucketCurve>(2, Period))
              : ArrivalCurvePtr(std::make_shared<PeriodicCurve>(Period));
    C.Tasks.addTask("t" + std::to_string(I), Wcet,
                    static_cast<Priority>(N - I), std::move(Curve), Period);
  }
  C.Sag.Horizon = (10 + 10 * (Index / 4 % 4)) * TickUs;
  C.Sag.ReleaseJitter =
      Index % 2 ? static_cast<Duration>(500 * perturb(Rng, 0.5)) : 0;
  C.Sag.Threads = 1;
  return C;
}

/// runUnifiedAnalyses with each of its seven parts in its own span (the
/// composition of src/analysis/dataflow/analyses.cpp).
std::vector<df::Finding> tracedUnified(const Cfg &G,
                                       const df::AnalysisOptions &Opts,
                                       Tracer &T) {
  std::vector<df::Finding> Out;
  auto Append = [&Out](std::vector<df::Finding> More) {
    Out.insert(Out.end(), std::make_move_iterator(More.begin()),
               std::make_move_iterator(More.end()));
  };
  {
    Tracer::Scope S(&T, "analysis.value_range_ms");
    Out = df::analyzeValueRanges(G, Opts).Findings;
  }
  {
    Tracer::Scope S(&T, "analysis.definite_init_ms");
    Append(df::analyzeDefiniteInit(G));
  }
  {
    Tracer::Scope S(&T, "analysis.dead_code_ms");
    Append(df::analyzeDeadCode(G, Opts));
  }
  {
    Tracer::Scope S(&T, "analysis.marker_discipline_ms");
    Append(df::analyzeMarkerDiscipline(G));
  }
  auto Lint = [&](const char *Name,
                  std::vector<LintFinding> (*Pass)(const Cfg &)) {
    std::vector<LintFinding> Fs;
    {
      Tracer::Scope S(&T, Name);
      Fs = Pass(G);
    }
    for (LintFinding &F : Fs) {
      df::Finding D;
      D.CheckId = F.Pass;
      D.Sev = df::Severity::Warning;
      D.Node = F.Node;
      D.Line = G[F.Node].Line;
      D.Message = std::move(F.Message);
      Out.push_back(std::move(D));
    }
  };
  Lint("analysis.marker_balance_ms", lintMarkerBalance);
  Lint("analysis.fuel_termination_ms", lintFuelTermination);
  Lint("analysis.machine_range_ms", lintMachineRange);
  df::sortFindings(Out);
  return Out;
}

std::string renderRta(const RtaResult &R) {
  std::string S = "rta";
  for (const TaskRta &T : R.PerTask)
    S += " " + std::to_string(T.Task) + ":" +
         (T.Bounded ? std::to_string(T.ResponseBound) : "unbounded");
  return S + "\n";
}

class StaticVerify final : public Workload {
public:
  void setup(std::uint64_t Seed, Tracer *) override {
    Progs = buildCorpus();
    Cases.clear();
    SplitMix64 Rng(Seed * 0xe7037ed1a0b428dbull + 4);
    for (std::size_t I = 0; I < Progs.size(); ++I)
      Cases.push_back(makeTaskCase(Rng, I));
    Ref = analyzeTiming(buildCfg(caesium::buildRosslProgram(ProtocolSockets)),
                        Params, ProtocolSockets);
  }

  std::size_t numInputs() const override { return Progs.size(); }

  OpOutcome run(std::size_t I, Tracer *T) override {
    const Program &P = Progs[I];
    const TaskCase &TC = Cases[I];
    OpOutcome O;
    if (T)
      T->count("caesium.source_bytes", double(P.Source.size()));

    caesium::AstArena Arena;
    std::optional<caesium::StmtPtr> Parsed;
    {
      Tracer::Scope S(T, "caesium.parse_ms");
      Parsed = caesium::parseProgram(Arena, P.Source);
    }
    if (!Parsed) {
      fail(O, P.Name + ": parse error");
      return O;
    }
    Cfg G;
    {
      Tracer::Scope S(T, "analysis.cfg_ms");
      buildCfg(*Parsed, G);
    }
    Verdict V;
    {
      Tracer::Scope S(T, "analysis.verify_ms");
      V = verifyProtocol(G, P.NumSockets);
    }
    std::vector<LintFinding> Lints;
    {
      Tracer::Scope S(T, "analysis.lint_ms");
      Lints = runLints(G, V.verified() ? &V : nullptr);
    }
    df::AnalysisOptions Opts;
    Opts.NumSockets = P.NumSockets;
    std::vector<df::Finding> Fs =
        T ? tracedUnified(G, Opts, *T) : df::runUnifiedAnalyses(G, Opts);
    df::WitnessOptions WOpts;
    WOpts.NumSockets = P.NumSockets;
    df::WitnessSummary WSum;
    {
      Tracer::Scope S(T, "analysis.witness_ms");
      WSum = df::refineFindings(G, Fs, WOpts);
    }
    O.Decisions += double(WSum.Attempted);
    O.Decided += double(WSum.Attempted - WSum.Unknown);

    std::string Out = df::renderText(P.Name, Fs);
    Out += std::string("protocol: ") + (V.verified() ? "verified" : "rejected") +
           " (" + std::to_string(V.StatesExplored) + " states)\n";
    Out += describe(Lints);
    checkCorpusFindings(P, Fs, O);
    if (P.Kind == Expect::Protocol && V.verified())
      fail(O, P.Name + ": protocol mutant verified");
    if ((P.Kind == Expect::Clean || P.Kind == Expect::Timing) &&
        !V.verified())
      fail(O, P.Name + ": rejected by the protocol verifier");
    if (T) {
      T->count("analysis.cfg_nodes", double(G.size()));
      T->count("analysis.verify_states", double(V.StatesExplored));
      T->count("analysis.witness_steps", double(WSum.Steps));
      T->count("analysis.witness_attempted", double(WSum.Attempted));
      T->count("analysis.witness_confirmed", double(WSum.Confirmed));
      T->count("analysis.witness_unknown", double(WSum.Unknown));
    }

    if (V.verified())
      Out += timedStages(P, TC, G, O, T);
    O.Digest = fnv1a(Out);
    return O;
  }

private:
  /// Timing, RTA and exact test on a protocol-clean program.
  std::string timedStages(const Program &P, const TaskCase &TC, const Cfg &G,
                          OpOutcome &O, Tracer *T) {
    if (T) {
      // analyzeTiming infers the loop bounds itself: time that call on
      // its own and report the timing pass's self time without it.
      Clock::time_point T0 = Clock::now();
      std::vector<LoopBound> Loops = inferLoopBounds(G);
      const double LoopMs = msSince(T0);
      T->addSelf("analysis.loop_bounds_ms", LoopMs);
      T->addSelf("analysis.timing_ms", -LoopMs);
    }
    TimingResult TR;
    {
      Tracer::Scope S(T, "analysis.timing_ms");
      TR = analyzeTiming(G, Params, P.NumSockets);
    }
    if (T)
      T->count("analysis.timing_paths", double(TR.PathsExplored));
    std::string Out = TR.describeTable();
    if (P.Kind == Expect::Timing && diffTiming(Ref, TR).empty())
      fail(O, P.Name + ": timing mutant not flagged");
    if (P.Kind == Expect::Clean && !TR.allBounded())
      fail(O, P.Name + ": clean program with an unbounded segment");
    if (!TR.allBounded())
      return Out;

    TimingInputs In = TR.toRtaInputs(TC.Tasks, Params.Wcets);
    RtaResult R;
    {
      Tracer::Scope S(T, "rta.npfp_ms");
      R = analyzeNpfp(TC.Tasks, In, TC.NumSockets);
    }
    SagResult X;
    {
      Tracer::Scope S(T, "sag.exact_ms");
      X = analyzeExact(TC.Tasks, TR.effectiveWcets(Params.Wcets),
                       TC.NumSockets, SchedPolicy::Npfp, TC.Sag);
    }
    O.Decisions += 1;
    O.Decided += X.Verdict != SagVerdict::Unknown;
    if (meetsDeadlines(R, TC.Tasks) && X.Verdict == SagVerdict::Unschedulable)
      fail(O, P.Name + ": RTA-schedulable but the exact test found a miss");
    if (X.Verdict == SagVerdict::Unschedulable &&
        !(X.Witness && X.Witness->ChecksPassed))
      fail(O, P.Name + ": Unschedulable without a checker-clean witness");
    if (T) {
      T->count("sag.states", double(X.Stats.States));
      T->count("sag.edges", double(X.Stats.Edges));
      T->count("sag.merges", double(X.Stats.Merges));
      T->count("sag.max_frontier", double(X.Stats.MaxFrontier));
      T->count("sag.replays", double(X.Stats.Replays));
      T->count("sag.replays_confirmed", double(X.Stats.ReplaysConfirmed));
      T->count("sag.unknown", X.Verdict == SagVerdict::Unknown ? 1.0 : 0.0);
    }
    return Out + renderRta(R) + sagResultJson(X) + "\n";
  }

  /// The value-range and witness corpora's expectations.
  static void checkCorpusFindings(const Program &P,
                                  const std::vector<df::Finding> &Fs,
                                  OpOutcome &O) {
    if (P.Kind != Expect::Range && P.Kind != Expect::Witness)
      return;
    bool Found = false;
    for (const df::Finding &F : Fs) {
      if (F.CheckId != P.CheckId)
        continue;
      if (P.Kind == Expect::Range) {
        Found = true;
        continue;
      }
      if (!F.Refined || toString(F.Refined->St) != P.Refinement)
        continue;
      if (P.Refinement == "confirmed")
        Found |= F.Refined->TrapCheckId == F.CheckId &&
                 F.Sev == df::Severity::Error;
      else if (P.Refinement == "infeasible")
        Found |= F.Sev == df::Severity::Note;
      else
        Found = true;
    }
    if (!Found)
      fail(O, P.Name + ": corpus expectation not met");
  }

  StaticCostParams Params = timingParams();
  std::vector<Program> Progs;
  std::vector<TaskCase> Cases;
  TimingResult Ref;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeStaticVerify() {
  return std::make_unique<StaticVerify>();
}
