//===- examples/rp_verify.cpp - Static protocol verification CLI ----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RefinedC-role front-end: statically verify that a scheduler
/// written in the deep embedding satisfies the scheduler protocol
/// (Def. 3.1) on *every* trace, and run the lint passes:
///
///   rp_verify                       # sweep buildRosslProgram(N),
///                                   # N in {1,2,4,8}, plus the mutant
///                                   # corpus as a self-check
///   rp_verify <file.rossl> [N]      # parse the C-like source (the
///                                   # print.h syntax) and verify it
///                                   # for N sockets (default 2)
///   rp_verify --timing              # static WCET/segment-cost tables
///                                   # for the embedded program,
///                                   # N in {1,2,4}, plus the timing
///                                   # mutant corpus (protocol-clean
///                                   # programs only the cost pass
///                                   # distinguishes)
///   rp_verify --timing <file> [N]   # segment-cost table for a .rossl
///                                   # source
///   rp_verify --lint [file] [N]     # the unified dataflow analyses
///                                   # (value-range, definite-init,
///                                   # dead-code, marker-discipline)
///                                   # plus the reachability lints, as
///                                   # one sorted findings report over
///                                   # the file (or the embedded
///                                   # program when omitted); add
///                                   # --sarif anywhere for SARIF 2.1.0
///                                   # JSON instead of text. Exit 0 iff
///                                   # nothing above note severity.
///                                   # --witness additionally refines
///                                   # every May value-range finding
///                                   # through the zone-domain path
///                                   # executor (witness.h): proven
///                                   # false positives are suppressed
///                                   # to notes, feasible trap paths
///                                   # reported with their synthesized
///                                   # inputs. --replay (implies
///                                   # --witness) also replays each
///                                   # witness on the interpreter and
///                                   # upgrades the finding to error
///                                   # iff the matching RuntimeTrap
///                                   # fires. Without --witness the
///                                   # output is byte-identical to
///                                   # earlier releases.
///   rp_verify --exact [spec]        # exact schedulability via the
///                                   # schedule-abstraction graph
///                                   # (sag/explore.h): every dispatch
///                                   # order of the bounded-horizon job
///                                   # set, merged states, and replay-
///                                   # confirmed deadline-miss counter-
///                                   # examples. Without a spec, runs a
///                                   # built-in pair (one schedulable,
///                                   # one overloaded) as a self-check
///                                   # and cross-checks the sufficient
///                                   # RTA verdict against the exact
///                                   # one. --threads=N parallelizes
///                                   # the frontier expansion; verdict
///                                   # and JSON are byte-identical for
///                                   # any thread count.
///   rp_verify --stream [spec] [hrzn] # dynamic verification in ONE
///                                   # pass: simulate the system spec
///                                   # (spec_parser.h format; built-in
///                                   # demo when omitted) and drive all
///                                   # trace checkers, the incremental
///                                   # §2.4 converter, and the validity
///                                   # constraints from the live marker
///                                   # stream — no materialized trace —
///                                   # then cross-check the report
///                                   # byte-for-byte against
///                                   # runAdequacy (same driver plus
///                                   # trace/conversion capture sinks);
///                                   # a task reaching the 2^18-arrival
///                                   # workload budget ends it first
///                                   # (exit 3)
///
/// The --timing sweep fans its socket counts and mutant corpus out over
/// a thread pool; pass --serial (or --threads=N) anywhere to pin the
/// parallelism. Output bytes are identical regardless of thread count.
///
/// Exit code 0 iff every expected-clean program verifies clean and
/// every mutant is rejected (file mode: iff the file verifies clean;
/// timing mode: iff every reachable segment class is bounded and every
/// timing mutant's grown bound is flagged; stream mode: iff Thm. 5.1's
/// assumptions hold, the theorem holds on the run, and the streaming
/// report matches the capturing one — a theorem made vacuous by a
/// failed assumption exits 1).
///
//===----------------------------------------------------------------------===//

#include "analysis/dataflow/analyses.h"
#include "analysis/dataflow/witness.h"
#include "analysis/incremental.h"
#include "analysis/lint.h"
#include "analysis/mutants.h"
#include "analysis/timing/segment_costs.h"
#include "analysis/verifier.h"

#include "adequacy/pipeline.h"
#include "adequacy/report.h"
#include "adequacy/spec_parser.h"
#include "caesium/parser.h"
#include "caesium/print.h"
#include "caesium/rossl_program.h"
#include "rta/rta_npfp.h"
#include "sag/explore.h"
#include "sim/workload.h"
#include "support/parallel.h"
#include "support/table.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::caesium;

namespace {

const char *kindName(VerdictKind K) {
  switch (K) {
  case VerdictKind::Verified:
    return "verified";
  case VerdictKind::ProtocolViolation:
    return "PROTOCOL VIOLATION";
  case VerdictKind::Defect:
    return "DEFECT";
  case VerdictKind::ResourceLimit:
    return "inconclusive";
  }
  return "?";
}

/// Analyzer + lints on one program; prints one table row.
struct Analysis {
  Verdict V;
  std::vector<LintFinding> Lints;
};

Analysis analyze(const StmtPtr &Program, std::uint32_t NumSockets) {
  Analysis A;
  Cfg G = buildCfg(Program);
  A.V = verifyProtocol(G, NumSockets);
  // Dead-branch lint needs complete coverage, which only a finished
  // clean exploration provides.
  A.Lints = runLints(G, A.V.verified() ? &A.V : nullptr);
  return A;
}

int sweepMode() {
  std::printf("=== rp_verify: static protocol verification of the "
              "embedded Roessl program ===\n\n");

  bool Ok = true;
  TableWriter Sweep({"sockets", "states", "transitions", "verdict",
                     "lint findings"});
  for (std::uint32_t N : {1u, 2u, 4u, 8u}) {
    Analysis A = analyze(buildRosslProgram(N), N);
    Sweep.addRow({std::to_string(N), std::to_string(A.V.StatesExplored),
                  std::to_string(A.V.TransitionsExplored),
                  kindName(A.V.Kind), std::to_string(A.Lints.size())});
    if (!A.V.verified() || !A.Lints.empty()) {
      Ok = false;
      std::printf("%s\n%s", A.V.describe().c_str(),
                  describe(A.Lints).c_str());
    }
  }
  std::printf("%s\n", Sweep.renderAscii().c_str());
  std::printf("a 'verified' row proves: every marker sequence this "
              "program can emit, for every socket behaviour and queue "
              "content, is accepted by the Fig. 5 protocol STS — the "
              "executable stand-in for the paper's RefinedC proof "
              "(exhaustive over the finite abstract state space, no "
              "fuel horizon).\n\n");

  TableWriter Mut({"mutant", "verdict", "markers to violation",
                   "rejecting diagnostic"});
  for (const Mutant &M : protocolMutantCorpus(2)) {
    Analysis A = analyze(M.Program, 2);
    bool Caught = !A.V.verified();
    Ok &= Caught;
    std::string Diag = A.V.Diagnostic.substr(0, 48);
    if (A.V.Diagnostic.size() > 48)
      Diag += "...";
    Mut.addRow({M.Name, Caught ? "caught" : "MISSED",
                std::to_string(A.V.MarkerPrefix.size()), Diag});
  }
  std::printf("%s\n", Mut.renderAscii().c_str());
  std::printf("every mutant must be caught: the corpus is the "
              "soundness evidence that a clean verdict is not "
              "vacuous.\n");
  return Ok ? 0 : 1;
}

/// Reads \p Path and parses it into \p Arena (which must outlive every
/// use of the returned tree). On failure prints the error to stderr —
/// for parse errors, a file:line:col caret snippet pointing at the
/// offending token — and returns nullopt.
std::optional<StmtPtr> parseRosslFile(AstArena &Arena, const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "rp_verify: cannot open %s\n", Path);
    return std::nullopt;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Src = Buf.str();
  ParseDiag PD;
  std::optional<StmtPtr> Program = parseProgram(Arena, Src, nullptr, &PD);
  if (!Program)
    std::fprintf(stderr, "%s", renderParseError(Path, Src, PD).c_str());
  return Program;
}

int fileMode(const char *Path, std::uint32_t NumSockets) {
  AstArena Arena;
  std::optional<StmtPtr> Program = parseRosslFile(Arena, Path);
  if (!Program)
    return 2;

  Analysis A = analyze(*Program, NumSockets);
  std::printf("%s: %s (%zu states, %zu transitions, %u sockets)\n", Path,
              kindName(A.V.Kind), A.V.StatesExplored,
              A.V.TransitionsExplored, NumSockets);
  if (!A.V.verified())
    std::printf("%s\n", A.V.describe().c_str());
  if (!A.Lints.empty())
    std::printf("%s", describe(A.Lints).c_str());
  return A.V.verified() && A.Lints.empty() ? 0 : 1;
}

/// The trusted tables the timing mode analyzes against: the typical
/// deployment's WCETs, unit instruction costs (so the instruction tails
/// are visible in the tables), and a µs-scale callback budget.
StaticCostParams timingParams() {
  StaticCostParams P;
  P.Wcets = BasicActionWcets::typicalDeployment();
  P.Instr = InstructionCosts::unit();
  P.MaxCallbackWcet = 10 * TickUs;
  return P;
}

int timingSweepMode(unsigned Threads, std::size_t Chunk) {
  std::printf("=== rp_verify --timing: static segment-cost analysis of "
              "the embedded Roessl program ===\n\n");

  // Both sweeps below fan out over a thread pool (--serial forces one
  // thread). Every unit writes only its own slot and all text is
  // rendered in input order afterwards, so the output bytes are
  // independent of the thread count.
  ThreadPool Pool(Threads);
  bool Ok = true;

  // One content-keyed cache for the whole mode (analysis/incremental.h):
  // the reference analysis below re-asks the 2-socket question this
  // sweep already answers, so it comes back as a cache hit instead of a
  // third full path enumeration. Results are copies of the first
  // computation — the printed tables cannot change.
  AnalysisCache TimingCache;

  const std::vector<std::uint32_t> Sockets = {1, 2, 4};
  struct SocketResult {
    std::string Block;
    bool Bounded = false;
  };
  std::vector<SocketResult> PerSocket(Sockets.size());
  Pool.parallelForChunked(Sockets.size(), Chunk, [&](std::size_t Idx) {
    std::uint32_t N = Sockets[Idx];
    TimingResult R = TimingCache.timing(buildRosslProgram(N), timingParams(), N);
    PerSocket[Idx].Block = "--- " + std::to_string(N) + " socket(s), " +
                           std::to_string(R.PathsExplored) +
                           " paths explored ---\n" + R.describeTable() +
                           "\n";
    PerSocket[Idx].Bounded = R.allBounded();
  });
  for (const SocketResult &S : PerSocket) {
    std::printf("%s", S.Block.c_str());
    Ok &= S.Bounded;
  }
  std::printf("a bounded row derives: every run of the program (under "
              "the trusted WCET/instruction-cost tables, excluding the "
              "fault-injecting cost model) spends a duration inside "
              "[lo, hi] on each segment of that class — the tables the "
              "paper assumes in Thm. 5.1, now computed from the code.\n\n");

  TimingResult Ref = TimingCache.timing(buildRosslProgram(2), timingParams(), 2);
  std::vector<Mutant> Corpus = timingMutantCorpus(2);
  struct MutantResult {
    std::vector<std::vector<std::string>> Rows;
    std::string WitnessText;
    bool Caught = false;
  };
  std::vector<MutantResult> PerMutant(Corpus.size());
  Pool.parallelForChunked(Corpus.size(), Chunk, [&](std::size_t Idx) {
    const Mutant &M = Corpus[Idx];
    MutantResult &Out = PerMutant[Idx];
    Cfg G = buildCfg(M.Program);
    Verdict V = verifyProtocol(G, 2);
    TimingResult Got = analyzeTiming(G, timingParams(), 2);
    std::vector<TimingDiff> Diffs = diffTiming(Ref, Got);
    Out.Caught = V.verified() && !Diffs.empty();
    if (Diffs.empty()) {
      Out.Rows.push_back({M.Name, kindName(V.Kind), "MISSED", "-", "-"});
      return;
    }
    for (const TimingDiff &D : Diffs) {
      Out.Rows.push_back({M.Name, kindName(V.Kind), toString(D.Class),
                          std::to_string(D.RefHi),
                          std::to_string(D.GotHi)});
      // The witness text holds one "  <label>\n" line per node; the
      // report joins the labels on one line.
      std::string Trail;
      for (std::string_view Rest = D.Witness; !Rest.empty();) {
        const std::size_t End = Rest.find('\n');
        if (!Trail.empty())
          Trail += " -> ";
        Trail += Rest.substr(2, End - 2);
        Rest.remove_prefix(End + 1);
      }
      Out.WitnessText +=
          M.Name + " / " + toString(D.Class) + " witness: " + Trail + "\n";
    }
  });

  TableWriter Mut({"timing mutant", "protocol", "flagged segment",
                   "ref hi", "mutant hi"});
  for (const MutantResult &R : PerMutant) {
    Ok &= R.Caught;
    for (const std::vector<std::string> &Row : R.Rows)
      Mut.addRow(Row);
    std::printf("%s", R.WitnessText.c_str());
  }
  std::printf("\n%s\n", Mut.renderAscii().c_str());
  std::printf("each timing mutant is protocol-clean — the Def. 3.1 "
              "verifier accepts it — so the grown segment bound with "
              "its witness path is the only static evidence of the "
              "regression.\n");
  return Ok ? 0 : 1;
}

const char *StreamDemoSpec = R"(# rp_verify --stream demo: a small sensor node
system stream-demo
sockets 3
policy npfp
wcets fr 400ns sr 900ns sel 300ns disp 250ns compl 350ns idle 2us
task imu    wcet 600us prio 3 curve periodic 20ms
task camera wcet 1500us prio 2 curve periodic 40ms
task logger wcet 400us prio 1 curve bucket 2 80ms
)";

/// --stream's workload budget in arrivals per task: a huge burst or a
/// long horizon would otherwise generate more arrivals than memory
/// holds. The shipped specs stay far below it.
constexpr std::uint64_t StreamArrivalBudget = std::uint64_t(1) << 18;

int streamMode(const char *Path, const char *HorizonArg) {
  std::string Text;
  if (Path) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "rp_verify: cannot open %s\n", Path);
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Text = Buf.str();
  } else {
    Text = StreamDemoSpec;
  }

  CheckResult Diags;
  std::optional<SystemSpec> Spec = parseSystemSpec(Text, &Diags);
  if (!Spec) {
    std::fprintf(stderr, "rp_verify: spec error:\n%s",
                 Diags.describe().c_str());
    return 2;
  }

  Duration Horizon = 100 * TickMs;
  if (HorizonArg) {
    std::optional<Duration> H = parseTimeLiteral(HorizonArg);
    if (!H || *H == 0) {
      std::fprintf(stderr, "rp_verify: bad horizon '%s'\n", HorizonArg);
      return 2;
    }
    Horizon = *H;
  }

  AdequacySpec ASpec;
  ASpec.Client = Spec->Client;
  WorkloadSpec WSpec;
  WSpec.NumSockets = Spec->Client.NumSockets;
  WSpec.Horizon = Horizon / 2;
  WSpec.Style = WorkloadStyle::GreedyDense;
  WSpec.MaxArrivalsPerTask = StreamArrivalBudget;
  ASpec.Arr = generateWorkload(Spec->Client.Tasks, WSpec);
  ASpec.Limits.Horizon = Horizon;
  for (const Task &Tk : Spec->Client.Tasks.tasks())
    if (ASpec.Arr.countInWindow(Tk.Id, 0, TimeInfinity) ==
        StreamArrivalBudget) {
      std::printf("workload generation stopped at its budget of %s "
                  "arrivals per task, at task %s\n",
                  formatWithCommas(StreamArrivalBudget).c_str(),
                  Tk.Name.c_str());
      return 3;
    }

  std::printf("=== rp_verify --stream: one-pass dynamic verification of "
              "'%s' over %s ===\n\n",
              Spec->Name.c_str(), formatTicksAsNs(Horizon).c_str());
  AdequacyReport Streamed = runAdequacyStreaming(ASpec);
  std::printf("%s\n%s\n", Streamed.summary().c_str(),
              renderTaskTable(Streamed, Spec->Client.Tasks).c_str());
  std::printf("the run above never materialized its trace: every "
              "checker, the incremental schedule builder, and the "
              "validity constraints consumed the %zu markers from one "
              "fan-out with per-job state retired at completion.\n\n",
              Streamed.Markers);

  // runAdequacy is the same driver plus sinks that capture the trace
  // and the conversion; same spec, same seed, so the reports must agree
  // to the byte — capturing must not change the report. (The §2.4 code
  // is checked against an independent reference in the test suite.)
  AdequacyReport Batch = runAdequacy(ASpec);
  bool Identical = Streamed.summary() == Batch.summary() &&
                   Streamed.totalChecks() == Batch.totalChecks() &&
                   Streamed.Jobs.size() == Batch.Jobs.size();
  for (std::size_t I = 0; Identical && I < Streamed.Jobs.size(); ++I)
    Identical = Streamed.Jobs[I].Holds == Batch.Jobs[I].Holds &&
                Streamed.Jobs[I].CompletedAt == Batch.Jobs[I].CompletedAt;
  std::printf("cross-check against the batch pipeline (%zu elementary "
              "checks each): %s\n",
              Batch.totalChecks(),
              Identical ? "reports byte-identical"
                        : "MISMATCH (streaming bug)");
  if (!Identical)
    std::printf("--- batch report ---\n%s", Batch.summary().c_str());
  // A failed assumption makes the theorem hold vacuously: no pass.
  return Streamed.assumptionsHold() && Streamed.theoremHolds() && Identical
             ? 0
             : 1;
}

/// The --exact self-check pair: one system every dispatch order meets
/// its deadlines in, and one overloaded system (utilization > 1 on one
/// socket) whose miss the replay gate must confirm.
const char *ExactDemoSchedulable = R"(# rp_verify --exact demo: schedulable
system exact-demo-ok
sockets 2
policy npfp
wcets fr 4 sr 10 sel 3 disp 2 compl 5 idle 8
task ctrl  wcet 300ns prio 2 deadline 4us curve periodic 4us
task telem wcet 500ns prio 1 deadline 8us curve periodic 8us
)";

const char *ExactDemoOverloaded = R"(# rp_verify --exact demo: overloaded
system exact-demo-miss
sockets 1
policy npfp
wcets fr 4 sr 10 sel 3 disp 2 compl 5 idle 8
task hog  wcet 3us prio 2 deadline 5us curve periodic 5us
task late wcet 3us prio 1 deadline 5us curve periodic 5us
)";

/// Runs the exact test on one parsed spec and prints the report block.
SagResult exactOne(const SystemSpec &Spec, const SagConfig &Cfg) {
  SagResult R = analyzeExact(Spec.Client.Tasks, Spec.Client.Wcets,
                             Spec.Client.NumSockets, Spec.Client.Policy, Cfg);
  RtaResult Rta = analyzeNpfp(Spec.Client.Tasks, Spec.Client.Wcets,
                              Spec.Client.NumSockets);
  bool RtaOk = meetsDeadlines(Rta, Spec.Client.Tasks);
  std::printf("--- %s: %zu job(s) before %s ---\n", Spec.Name.c_str(),
              R.Stats.Jobs, formatTicksAsNs(Cfg.Horizon).c_str());
  std::printf("exact verdict: %s (%s)\n", toString(R.Verdict).c_str(),
              R.Note.c_str());
  if (R.Witness) {
    const SagWitness &W = R.Witness.value();
    std::printf("counterexample (replay-confirmed, checkers %s): task %u "
                "job arriving at %s completes at %s — response %s > "
                "deadline %s\n",
                W.ChecksPassed ? "clean" : "FAILED", W.Task,
                formatTicksAsNs(W.ArrivalAt).c_str(),
                formatTicksAsNs(W.CompletedAt).c_str(),
                formatTicksAsNs(W.Response).c_str(),
                formatTicksAsNs(W.Deadline).c_str());
  }
  std::printf("sufficient RTA verdict: %s\n",
              RtaOk ? "schedulable" : "not proven schedulable");
  // The soundness direction (RTA proves what the exact test cannot
  // refute): a sufficient "schedulable" with an exact "Unschedulable"
  // means one of the two analyses is wrong.
  if (RtaOk && R.Verdict == SagVerdict::Unschedulable) {
    std::printf("SOUNDNESS VIOLATION: RTA-schedulable but the exact test "
                "replay-confirmed a miss\n");
    R.Verdict = SagVerdict::Unknown;
    R.Note = "soundness violation against the sufficient RTA";
  }
  std::printf("%s\n\n", sagResultJson(R).c_str());
  return R;
}

int exactMode(const char *Path, unsigned Threads) {
  SagConfig Cfg;
  Cfg.Threads = Threads;

  if (Path) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "rp_verify: cannot open %s\n", Path);
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    CheckResult Diags;
    std::optional<SystemSpec> Spec = parseSystemSpec(Buf.str(), &Diags);
    if (!Spec) {
      std::fprintf(stderr, "rp_verify: spec error:\n%s",
                   Diags.describe().c_str());
      return 2;
    }
    std::printf("=== rp_verify --exact: schedule-abstraction graph over "
                "'%s' ===\n\n",
                Spec->Name.c_str());
    SagResult R = exactOne(*Spec, Cfg);
    return R.Verdict == SagVerdict::Schedulable ? 0 : 1;
  }

  std::printf("=== rp_verify --exact: built-in self-check pair ===\n\n");
  CheckResult Diags;
  std::optional<SystemSpec> Ok = parseSystemSpec(ExactDemoSchedulable, &Diags);
  std::optional<SystemSpec> Miss =
      parseSystemSpec(ExactDemoOverloaded, &Diags);
  if (!Ok || !Miss) {
    std::fprintf(stderr, "rp_verify: internal demo spec error:\n%s",
                 Diags.describe().c_str());
    return 2;
  }
  SagResult ROk = exactOne(*Ok, Cfg);
  SagResult RMiss = exactOne(*Miss, Cfg);
  bool Pass = ROk.Verdict == SagVerdict::Schedulable &&
              RMiss.Verdict == SagVerdict::Unschedulable &&
              RMiss.Witness && RMiss.Witness->ChecksPassed;
  std::printf("self-check: %s — the exact test must prove the feasible "
              "system and replay-confirm the overload's miss.\n",
              Pass ? "pass" : "FAIL");
  return Pass ? 0 : 1;
}

int lintMode(const char *Path, std::uint32_t NumSockets, bool Sarif,
             bool Witness, bool Replay) {
  StmtPtr Program = nullptr;
  std::string File = "<embedded>";
  AstArena Arena;
  if (Path) {
    std::optional<StmtPtr> Parsed = parseRosslFile(Arena, Path);
    if (!Parsed)
      return 2;
    Program = *Parsed;
    File = Path;
  } else {
    Program = buildRosslProgram(NumSockets);
  }

  dataflow::AnalysisOptions Opts;
  Opts.NumSockets = NumSockets;
  Cfg G = buildCfg(Program);
  std::vector<dataflow::Finding> Fs = dataflow::runUnifiedAnalyses(G, Opts);
  dataflow::WitnessSummary WSum;
  if (Witness) {
    dataflow::WitnessOptions WOpts;
    WOpts.NumSockets = NumSockets;
    WOpts.Replay = Replay;
    WSum = dataflow::refineFindings(G, Fs, WOpts);
  }
  if (Sarif) {
    std::printf("%s", dataflow::renderSarif(File, Fs).c_str());
  } else {
    std::printf("%s", dataflow::renderText(File, Fs).c_str());
    std::printf("%s: %zu finding(s), %u socket(s), max severity %s\n",
                File.c_str(), Fs.size(), NumSockets,
                toString(dataflow::maxSeverity(Fs)));
    if (Witness)
      std::printf("witness refinement: %zu attempted, %zu confirmed, %zu "
                  "witness-only, %zu suppressed, %zu unknown (%llu search "
                  "step(s))\n",
                  WSum.Attempted, WSum.Confirmed, WSum.WitnessOnly,
                  WSum.Suppressed, WSum.Unknown,
                  static_cast<unsigned long long>(WSum.Steps));
  }
  // The CI gate's contract: notes are fine, anything louder fails.
  // Refinement runs first, so a suppressed false positive no longer
  // trips the gate and a replay-confirmed trap always does.
  return dataflow::maxSeverity(Fs) == dataflow::Severity::Note ? 0 : 1;
}

/// --incremental: the single-task-edit loop over a workspace of
/// program slices (analysis/incremental.h). Three rounds — cold, an
/// unchanged re-analysis, and a one-slice edit — show which slices
/// re-analyze and which come back from the content-keyed cache; the
/// cache runs in cross-check mode, so every reuse is re-derived and
/// byte-compared against the cached rendering. The cached per-slice
/// WCET tables then feed a SweepRunner batch directly. All output is
/// deterministic (no wall times), so this mode doubles as a test
/// surface (example_rp_verify_incremental).
int incrementalMode(const std::vector<char *> &Files) {
  AnalysisCache::Options CO;
  CO.CrossCheck = true;
  WorkspaceAnalyzer WA(timingParams(), CO);

  std::vector<TaskSlice> Slices;
  if (Files.empty()) {
    for (std::uint32_t N : {1u, 2u, 4u})
      Slices.push_back({"embedded-" + std::to_string(N),
                        printStmt(*buildRosslProgram(N)), N});
  } else {
    for (char *F : Files) {
      std::ifstream In(F);
      if (!In) {
        std::fprintf(stderr, "rp_verify: cannot open %s\n", F);
        return 2;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Slices.push_back({F, Buf.str(), 2});
    }
  }

  std::printf("=== rp_verify --incremental: content-keyed re-analysis of "
              "%zu slice(s) ===\n\n",
              Slices.size());

  bool ParseFailed = false;
  std::vector<SliceAnalysis> Last;
  auto Round = [&](const char *Title) {
    Last = WA.analyze(Slices);
    TableWriter T({"slice", "fingerprint", "reused", "bounded",
                   "findings", "max severity"});
    for (const SliceAnalysis &R : Last) {
      if (!R.ParseOk) {
        std::fprintf(stderr, "%s", R.ParseError.c_str());
        ParseFailed = true;
        continue;
      }
      char Fp[24];
      std::snprintf(Fp, sizeof(Fp), "%016llx",
                    static_cast<unsigned long long>(R.Fingerprint));
      T.addRow({R.Name, Fp, R.Reused ? "yes" : "no",
                R.Timing.allBounded() ? "yes" : "NO",
                std::to_string(R.Lint.size()),
                toString(dataflow::maxSeverity(R.Lint))});
    }
    std::printf("--- %s ---\n%s\n", Title, T.renderAscii().c_str());
  };

  Round("round 1: cold");
  if (ParseFailed)
    return 2;
  Round("round 2: unchanged re-analysis (every slice reused)");
  // A real edit to the last slice: one more register write changes the
  // program content, so only this slice re-parses and re-analyzes.
  Slices.back().Source += "r7 = 0;\n";
  Slices.back().Name += "+edit";
  Round("round 3: one slice edited (the others stay cached)");
  if (ParseFailed)
    return 2;

  IncrementalStats St = WA.cache().stats();
  std::printf("cache: timing %zu hit(s) / %zu miss(es), lint %zu hit(s) "
              "/ %zu miss(es), %zu cross-check(s) passed\n\n",
              St.TimingHits, St.TimingMisses, St.LintHits, St.LintMisses,
              St.CrossChecks);

  // The cached per-slice WCET intervals feed the response-time sweep
  // without re-running the static pass: one SweepPoint per slice, its
  // derived (not hand-supplied) WCET table as the supply parameters.
  TaskSet Tasks;
  Tasks.addTask("ctrl", 600 * TickNs, 3,
                std::make_shared<PeriodicCurve>(15 * TickUs));
  Tasks.addTask("sense", 400 * TickNs, 2,
                std::make_shared<PeriodicCurve>(25 * TickUs));
  Tasks.addTask("log", 1200 * TickNs, 1,
                std::make_shared<PeriodicCurve>(60 * TickUs));
  std::vector<SweepPoint> Points = WA.sweepPointsFor(
      Last, Tasks, RtaConfig{}, BasicActionWcets::typicalDeployment());
  SweepRunner Runner;
  std::vector<RtaResult> Results = Runner.run(Points);
  TableWriter S({"slice", "sockets", "schedulable", "max response bound"});
  bool Ok = true;
  for (std::size_t I = 0; I < Results.size(); ++I) {
    Duration MaxR = 0;
    for (const TaskRta &T : Results[I].PerTask)
      MaxR = std::max(MaxR, T.ResponseBound);
    Ok &= Results[I].allBounded();
    S.addRow({Last[I].Name, std::to_string(Points[I].Sbf.NumSockets),
              Results[I].allBounded() ? "yes" : "NO",
              std::to_string(MaxR)});
  }
  std::printf("--- sweep over the cached derived WCET tables ---\n%s\n",
              S.renderAscii().c_str());
  std::printf("every reuse above was re-derived and byte-compared "
              "(cross-check mode): cached and fresh analyses render "
              "identically.\n");
  return Ok ? 0 : 1;
}

int timingFileMode(const char *Path, std::uint32_t NumSockets) {
  AstArena Arena;
  std::optional<StmtPtr> Program = parseRosslFile(Arena, Path);
  if (!Program)
    return 2;
  TimingResult R =
      analyzeTiming(buildCfg(*Program), timingParams(), NumSockets);
  std::printf("%s: static segment costs for %u socket(s), %llu paths\n%s\n",
              Path, NumSockets,
              static_cast<unsigned long long>(R.PathsExplored),
              R.describeTable().c_str());
  return R.allBounded() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  // Threading flags (--serial, --threads=N, --chunk=N) may appear
  // anywhere; the remaining arguments keep their positional meaning.
  unsigned Threads = threadsFromArgs(Argc, Argv);
  std::size_t Chunk = chunkFromArgs(Argc, Argv);
  bool Sarif = false;
  bool Witness = false;
  bool Replay = false;
  std::vector<char *> Pos;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--sarif") == 0) {
      Sarif = true;
      continue;
    }
    if (std::strcmp(Argv[I], "--witness") == 0) {
      Witness = true;
      continue;
    }
    if (std::strcmp(Argv[I], "--replay") == 0) {
      Witness = true;
      Replay = true;
      continue;
    }
    if (std::strcmp(Argv[I], "--serial") != 0 &&
        std::strncmp(Argv[I], "--threads=", 10) != 0 &&
        std::strncmp(Argv[I], "--chunk=", 8) != 0)
      Pos.push_back(Argv[I]);
  }

  if (Pos.empty())
    return sweepMode();

  if (std::string(Pos[0]) == "--exact")
    return exactMode(Pos.size() >= 2 ? Pos[1] : nullptr, Threads);

  if (std::string(Pos[0]) == "--incremental")
    return incrementalMode(
        std::vector<char *>(Pos.begin() + 1, Pos.end()));

  if (std::string(Pos[0]) == "--stream")
    return streamMode(Pos.size() >= 2 ? Pos[1] : nullptr,
                      Pos.size() >= 3 ? Pos[2] : nullptr);

  bool Timing = std::string(Pos[0]) == "--timing";
  bool Lint = std::string(Pos[0]) == "--lint";
  const char *Path = nullptr;
  const char *SockArg = nullptr;
  if (Timing || Lint) {
    if (Pos.size() >= 2)
      Path = Pos[1];
    if (Pos.size() >= 3)
      SockArg = Pos[2];
  } else {
    Path = Pos[0];
    if (Pos.size() >= 2)
      SockArg = Pos[1];
  }

  std::uint32_t NumSockets = 2;
  if (SockArg) {
    std::optional<std::uint32_t> N = parseSocketCount(SockArg);
    if (!N) {
      std::fprintf(stderr,
                   "rp_verify: invalid socket count '%s' (expected an "
                   "integer in [1, %u])\nusage: rp_verify [--lint | "
                   "--timing] <file.rossl> [num-sockets]\n",
                   SockArg, MaxSockets);
      return 2;
    }
    NumSockets = *N;
  }

  if (Lint)
    return lintMode(Path, NumSockets, Sarif, Witness, Replay);
  if (Timing)
    return Path ? timingFileMode(Path, NumSockets)
                : timingSweepMode(Threads, Chunk);
  return fileMode(Path, NumSockets);
}
