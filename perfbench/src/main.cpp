//===- perfbench/src/main.cpp - The end-to-end benchmark driver -----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload closed-loop and prints its metrics; see
/// perfbench/NOTES.md for the workloads, the metrics and the layer
/// table.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--digests <file>] [--out <dir>] [--corrupt-expected]
///             [--print-digests]
///
/// Untraced (--trace 0): set-up runs at least three times (setup_s is the
/// median); then ops run back to back over the inputs, in whole passes,
/// until --seconds have passed and at least 100 ops are done, and cheap
/// inputs repeat until each has 20 samples. The timings are each input's
/// best op, scaled by a machine gauge (MachineGauge). Every op checks its
/// known answer and the digest of its rendered output against the
/// recorded one (from --digests, else the input's first op); an op
/// failing either counts as failed.
///
/// Traced (--trace 1): every workload runs, a quarter of --seconds each,
/// each op with a span around every layer call; each per-layer metric is
/// taken from the workloads that call that layer. Every input first runs
/// untraced once, so each traced op's digest is checked against the
/// untraced verdict and the tracing overhead is the difference of the
/// two op times. Spans and per-layer numbers go to
/// <out>/trace-<workload>-<seed>.json.
///
/// The last line of standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace perfbench;

namespace {

const char *const WorkloadNames[] = {"adequacy_dense", "trace_replay",
                                     "rta_sweep", "static_verify"};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "adequacy_dense")
    return makeAdequacyDense();
  if (Name == "trace_replay")
    return makeTraceReplay();
  if (Name == "rta_sweep")
    return makeRtaSweep();
  if (Name == "static_verify")
    return makeStaticVerify();
  return nullptr;
}

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Digests;
  std::string Out = ".";
  bool CorruptExpected = false;
  bool PrintDigests = false;
};

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--digests <file>] [--out <dir>] "
               "[--corrupt-expected] [--print-digests]\n",
               Why.c_str());
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Val = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage("missing value for " + K);
      return Argv[++I];
    };
    if (K == "--workload")
      A.Workload = Val();
    else if (K == "--seed")
      A.Seed = std::strtoull(Val().c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(Val().c_str(), nullptr);
    else if (K == "--trace")
      A.Trace = Val() == "1";
    else if (K == "--digests")
      A.Digests = Val();
    else if (K == "--out")
      A.Out = Val();
    else if (K == "--corrupt-expected")
      A.CorruptExpected = true;
    else if (K == "--print-digests")
      A.PrintDigests = true;
    else
      usage("unknown argument " + K);
  }
  if (!makeWorkload(A.Workload))
    usage("unknown workload '" + A.Workload + "'");
  if (!(A.Seconds > 0))
    usage("--seconds must be positive");
  return A;
}

/// The recorded per-input digests of (workload, seed): lines of
/// "<workload> <seed> <hex> <hex> ...". Empty when not recorded.
std::vector<std::uint64_t> recordedDigests(const std::string &File,
                                           const std::string &Workload,
                                           std::uint64_t Seed) {
  std::ifstream In(File);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream L(Line);
    std::string W;
    std::uint64_t S = 0;
    if (!(L >> W >> S) || W != Workload || S != Seed)
      continue;
    std::vector<std::uint64_t> Out;
    std::string H;
    while (L >> H)
      Out.push_back(std::strtoull(H.c_str(), nullptr, 16));
    return Out;
  }
  return {};
}

/// VmHWM in KiB; 0 when /proc is unavailable.
std::size_t vmHwmKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(Line.c_str() + 6, nullptr, 10);
  return 0;
}

/// Returns freed heap pages, then resets VmHWM to the current RSS.
/// False when /proc/self/clear_refs is missing.
bool resetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream Out("/proc/self/clear_refs");
  if (!Out)
    return false;
  Out << "5\n";
  return Out.good();
}

double quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  // Nearest rank.
  std::size_t Rank = static_cast<std::size_t>(std::ceil(Q * double(V.size())));
  return V[std::clamp<std::size_t>(Rank, 1, V.size()) - 1];
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Checks each op's digest against the expected one of its input: the
/// recorded digest when there is one, else the input's first op.
class DigestGate {
public:
  DigestGate(std::vector<std::uint64_t> Recorded, std::size_t Inputs,
             bool Corrupt)
      : Expected(Inputs), Known(Inputs, false), Corrupt(Corrupt) {
    if (Recorded.size() == Inputs) {
      for (std::size_t I = 0; I < Inputs; ++I) {
        Expected[I] = Recorded[I];
        Known[I] = true;
      }
      FromRecord = true;
    }
  }

  bool fromRecord() const { return FromRecord; }

  /// True when \p Digest matches input \p I's expected digest.
  bool check(std::size_t I, std::uint64_t Digest) {
    if (!Known[I]) {
      Expected[I] = Digest;
      Known[I] = true;
    }
    return Digest == (Corrupt ? ~Expected[I] : Expected[I]);
  }

private:
  std::vector<std::uint64_t> Expected;
  std::vector<bool> Known;
  bool Corrupt = false;
  bool FromRecord = false;
};

struct Tally {
  std::size_t Attempted = 0;
  std::size_t Failed = 0;
  std::string FirstFailure;

  void note(bool Ok, const std::string &Why) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (FirstFailure.empty())
      FirstFailure = Why;
  }
};

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

std::string metricJson(const std::map<std::string, std::pair<double,
                                                             std::string>> &M) {
  std::string S = "{";
  bool First = true;
  for (const auto &[Name, VU] : M) {
    S += std::string(First ? "" : ", ") + "\"" + Name + "\": {\"value\": " +
         num(VU.first) + ", \"unit\": \"" + VU.second + "\"}";
    First = false;
  }
  return S + "}";
}

void printResult(const Tally &T,
                 const std::map<std::string, std::pair<double, std::string>>
                     &Metrics) {
  if (!T.FirstFailure.empty())
    std::printf("first failure: %s\n", T.FirstFailure.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              T.Failed == 0 ? "true" : "false", T.Attempted, T.Failed,
              metricJson(Metrics).c_str());
  std::fflush(stdout);
}

//===-- Untraced run -------------------------------------------------------===//

/// Measures how fast the machine runs: a fixed kernel of dependent loads
/// and multiplies over a 256 KiB table, timed between ops about once per
/// 20 ms. On a shared host whole seconds run up to 2x slower. The
/// kernel's best time in a run is the machine's speed in the run's
/// fastest windows, where the ops' best times come from too; scale()
/// maps times at that speed onto the nominal speed.
class MachineGauge {
public:
  MachineGauge() : Buf(1u << 16) {
    std::uint64_t H = 88172645463325252ull;
    for (std::uint32_t &V : Buf) {
      H ^= H << 13;
      H ^= H >> 7;
      H ^= H << 17;
      V = static_cast<std::uint32_t>(H);
    }
  }

  /// Runs the kernel when the last sample is SampleEveryMs old.
  void maybeSample(double NowMs) {
    if (NowMs < NextMs)
      return;
    Clock::time_point T0 = Clock::now();
    std::uint64_t H = 1;
    for (int I = 0; I < KernelSteps; ++I)
      H = H * 6364136223846793005ull + Buf[(H >> 40) & (Buf.size() - 1)];
    Sink = H;
    const double Ms = msSince(T0);
    Best = std::min(Best, Ms);
    ++Samples;
    NextMs = NowMs + Ms + SampleEveryMs;
  }

  double bestMs() const { return Best; }
  /// NominalMs over the best kernel time (1 without samples).
  double scale() const { return Samples ? NominalMs / Best : 1.0; }

private:
  static constexpr int KernelSteps = 200000;
  static constexpr double SampleEveryMs = 20;
  /// The kernel's best time on the machine the baseline was recorded on
  /// (perfbench/baseline.json): scaled times are times at that speed.
  static constexpr double NominalMs = 1.2;

  std::vector<std::uint32_t> Buf;
  double Best = 1e300;
  double NextMs = 0;
  std::size_t Samples = 0;
  volatile std::uint64_t Sink = 0;
};

constexpr std::size_t MinSetups = 3;
constexpr std::size_t MaxSetups = 100;
constexpr double SetupMinMs = 500;
constexpr std::size_t MinOps = 100;
constexpr std::size_t MinReps = 20;
constexpr double TopUpMaxMs = 20;

/// One set-up and one pass; prints the digest line that
/// perfbench/digests.txt records.
int printDigests(const Args &A) {
  std::unique_ptr<Workload> W = makeWorkload(A.Workload);
  W->setup(A.Seed, nullptr);
  Tally T;
  std::printf("digests %s %llu", A.Workload.c_str(),
              static_cast<unsigned long long>(A.Seed));
  for (std::size_t I = 0; I < W->numInputs(); ++I) {
    OpOutcome O = W->run(I, nullptr);
    T.note(O.Correct, O.Why);
    std::printf(" %s", hex64(O.Digest).c_str());
  }
  std::printf("\n");
  if (!T.FirstFailure.empty())
    std::printf("first failure: %s\n", T.FirstFailure.c_str());
  return T.Failed == 0 ? 0 : 1;
}

int runUntraced(const Args &A) {
  if (A.PrintDigests)
    return printDigests(A);
  std::unique_ptr<Workload> W = makeWorkload(A.Workload);
  // Cheap set-ups repeat until SetupMinMs have passed, so their median
  // is not one noisy sample.
  MachineGauge Gauge;
  Clock::time_point SetupStart = Clock::now();
  std::vector<double> SetupS;
  double SetupMs = 0;
  while (SetupS.size() < MinSetups ||
         (SetupMs < SetupMinMs && SetupS.size() < MaxSetups)) {
    Gauge.maybeSample(msSince(SetupStart));
    Clock::time_point T0 = Clock::now();
    W->setup(A.Seed, nullptr);
    SetupS.push_back(msSince(T0) / 1000);
    SetupMs += SetupS.back() * 1000;
  }
  const std::size_t N = W->numInputs();
  DigestGate Gate(recordedDigests(A.Digests, A.Workload, A.Seed), N,
                  A.CorruptExpected);

  const bool RssReset = resetPeakRss();
  Tally T;
  std::vector<double> OpMs;
  // Per input: its fastest op.
  std::vector<double> BestMs(N, 1e300);
  std::vector<std::size_t> Reps(N, 0);
  Clock::time_point Start = Clock::now();
  auto RunOp = [&](std::size_t I) {
    Gauge.maybeSample(msSince(Start));
    Clock::time_point T0 = Clock::now();
    OpOutcome O = W->run(I, nullptr);
    OpMs.push_back(msSince(T0));
    BestMs[I] = std::min(BestMs[I], OpMs.back());
    ++Reps[I];
    if (!Gate.check(I, O.Digest))
      fail(O, "input " + std::to_string(I) + ": output digest " +
                  hex64(O.Digest) + " differs from the expected");
    T.note(O.Correct, O.Why);
    return O;
  };
  OpOutcome PassWork; // Work units of one pass.
  for (std::size_t I = 0; I < N; ++I) {
    OpOutcome O = RunOp(I);
    PassWork.Markers += O.Markers;
    PassWork.Bytes += O.Bytes;
    PassWork.Points += O.Points;
    PassWork.Decided += O.Decided;
    PassWork.Decisions += O.Decisions;
  }
  // Whole passes over the inputs, so every run weighs them alike; then
  // cheap inputs repeat until each has MinReps samples, so that no best
  // time rests on a handful of noisy ones.
  double ElapsedMs = msSince(Start);
  while (ElapsedMs < A.Seconds * 1000 || OpMs.size() < MinOps) {
    for (std::size_t I = 0; I < N; ++I)
      RunOp(I);
    ElapsedMs = msSince(Start);
  }
  for (std::size_t I = 0; I < N; ++I)
    while (Reps[I] < MinReps && BestMs[I] <= TopUpMaxMs)
      RunOp(I);
  ElapsedMs = msSince(Start);
  const double PeakMb = double(vmHwmKb()) / 1024.0;
  // Every input's best op time, scaled to the nominal machine speed, and
  // one pass at those times: the time base of the rates (see
  // perfbench/NOTES.md, "Estimators").
  const double Scale = Gauge.scale();
  double PassS = 0;
  for (double &B : BestMs) {
    B *= Scale;
    PassS += B / 1000;
  }

  std::printf("workload %s seed %llu: %zu ops over %zu inputs in %.3f s "
              "(digests %s)\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              OpMs.size(), N, ElapsedMs / 1000,
              Gate.fromRecord() ? "checked against the record"
                                : "not recorded for this seed; checked "
                                  "across repeats");
  std::printf("op_fail_ratio: %.6g ratio\n",
              double(T.Failed) / double(T.Attempted));
  if (PassWork.Markers > 0)
    std::printf("markers_per_s: %.6g 1/s\n", PassWork.Markers / PassS);
  if (PassWork.Bytes > 0)
    std::printf("trace_mb_per_s: %.6g MB/s\n", PassWork.Bytes / 1e6 / PassS);
  if (PassWork.Points > 0)
    std::printf("points_per_s: %.6g 1/s\n", PassWork.Points / PassS);
  if (PassWork.Decisions > 0)
    std::printf("decided_ratio: %.6g ratio\n",
                PassWork.Decided / PassWork.Decisions);
  std::printf("op_p50_ms: %.6g ms\nop_p90_ms: %.6g ms\n",
              quantile(BestMs, 0.5), quantile(BestMs, 0.9));
  std::printf("unscaled wall clock over all %zu ops: %.6g ops/s, op p50 "
              "%.6g ms, op p90 %.6g ms; gauge best %.4g ms\n",
              OpMs.size(), double(OpMs.size()) / (ElapsedMs / 1000),
              quantile(OpMs, 0.5), quantile(OpMs, 0.9), Gauge.bestMs());
  if (!RssReset)
    std::printf("peak_rss_mb: unavailable (no /proc/self/clear_refs); the "
                "value below is the whole-process peak\n");

  std::map<std::string, std::pair<double, std::string>> M;
  M["setup_s"] = {median(SetupS) * Scale, "s"};
  M["ops_per_s"] = {double(N) / PassS, "1/s"};
  M["peak_rss_mb"] = {PeakMb, "MB"};
  printResult(T, M);
  return 0;
}

//===-- Traced run ---------------------------------------------------------===//

/// Where a per-layer metric comes from.
enum class Source : std::uint8_t {
  Span,    ///< Self time per op of the named span.
  Counter, ///< Counter per op.
  Setup,   ///< Self time of the named span in one traced set-up.
  Fanout,  ///< Untraced op time minus the op's traced layer spans.
};

struct LayerMetric {
  const char *Name;
  const char *Unit;
  Source Src;
  /// The workloads whose ops the metric is averaged over.
  std::vector<const char *> Homes;
};

const char *const AD = "adequacy_dense";
const char *const TR = "trace_replay";
const char *const RS = "rta_sweep";
const char *const SV = "static_verify";

const std::vector<LayerMetric> &layerMetrics() {
  static const std::vector<LayerMetric> Ms = {
      {"sim.workload_gen_ms", "ms", Source::Setup, {AD}},
      {"sim.arrivals", "count", Source::Counter, {AD}},
      {"rossl.run_ms", "ms", Source::Span, {AD}},
      {"rossl.markers", "count", Source::Counter, {AD}},
      {"core.respects_curves_ms", "ms", Source::Span, {AD}},
      {"core.respects_curves_checks", "count", Source::Counter, {AD}},
      {"trace.timestamps_ms", "ms", Source::Span, {AD, TR}},
      {"trace.protocol_ms", "ms", Source::Span, {AD, TR}},
      {"trace.functional_ms", "ms", Source::Span, {AD, TR}},
      {"trace.consistency_ms", "ms", Source::Span, {AD, TR}},
      {"trace.wcet_ms", "ms", Source::Span, {AD, TR}},
      {"trace.read_ms", "ms", Source::Span, {TR}},
      {"trace.read_bytes", "bytes", Source::Counter, {TR}},
      {"trace.read_chunks", "count", Source::Counter, {TR}},
      {"trace.write_ms", "ms", Source::Setup, {TR}},
      {"convert.builder_ms", "ms", Source::Span, {TR}},
      {"convert.validity_ms", "ms", Source::Span, {AD}},
      {"convert.jobs", "count", Source::Counter, {AD}},
      {"adequacy.fanout_ms", "ms", Source::Fanout, {AD}},
      {"adequacy.checks", "count", Source::Counter, {AD}},
      {"rta.sweep_ms", "ms", Source::Span, {RS}},
      {"rta.npfp_ms", "ms", Source::Span, {SV}},
      {"rta.points", "count", Source::Counter, {RS}},
      {"rta.fixpoint_iterations", "count", Source::Counter, {RS}},
      {"rta.supply_iterations", "count", Source::Counter, {RS}},
      {"rta.warm_seeded", "count", Source::Counter, {RS}},
      {"rta.curve_hits", "count", Source::Counter, {RS}},
      {"rta.curve_misses", "count", Source::Counter, {RS}},
      {"sag.exact_ms", "ms", Source::Span, {SV}},
      {"sag.states", "count", Source::Counter, {SV}},
      {"sag.edges", "count", Source::Counter, {SV}},
      {"sag.merges", "count", Source::Counter, {SV}},
      {"sag.max_frontier", "count", Source::Counter, {SV}},
      {"sag.replays", "count", Source::Counter, {SV}},
      {"sag.replays_confirmed", "count", Source::Counter, {SV}},
      {"sag.unknown", "count", Source::Counter, {SV}},
      {"caesium.parse_ms", "ms", Source::Span, {SV}},
      {"caesium.source_bytes", "bytes", Source::Counter, {SV}},
      {"analysis.cfg_ms", "ms", Source::Span, {SV}},
      {"analysis.cfg_nodes", "count", Source::Counter, {SV}},
      {"analysis.verify_ms", "ms", Source::Span, {SV}},
      {"analysis.verify_states", "count", Source::Counter, {SV}},
      {"analysis.lint_ms", "ms", Source::Span, {SV}},
      {"analysis.value_range_ms", "ms", Source::Span, {SV}},
      {"analysis.definite_init_ms", "ms", Source::Span, {SV}},
      {"analysis.dead_code_ms", "ms", Source::Span, {SV}},
      {"analysis.marker_discipline_ms", "ms", Source::Span, {SV}},
      {"analysis.marker_balance_ms", "ms", Source::Span, {SV}},
      {"analysis.fuel_termination_ms", "ms", Source::Span, {SV}},
      {"analysis.machine_range_ms", "ms", Source::Span, {SV}},
      {"analysis.loop_bounds_ms", "ms", Source::Span, {SV}},
      {"analysis.timing_ms", "ms", Source::Span, {SV}},
      {"analysis.timing_paths", "count", Source::Counter, {SV}},
      {"analysis.witness_ms", "ms", Source::Span, {SV}},
      {"analysis.witness_steps", "count", Source::Counter, {SV}},
      {"analysis.witness_attempted", "count", Source::Counter, {SV}},
      {"analysis.witness_confirmed", "count", Source::Counter, {SV}},
      {"analysis.witness_unknown", "count", Source::Counter, {SV}},
  };
  return Ms;
}

/// Everything the traced run learns about one workload.
struct TracedWorkload {
  std::string Name;
  std::size_t Ops = 0;
  std::map<std::string, double> Self;     ///< Summed self ms per span.
  std::map<std::string, double> Counters; ///< Summed counters.
  std::map<std::string, double> SetupSelf;
  double UntracedMs = 0; ///< Summed untraced time of the traced ops' inputs.
  double TracedMs = 0;   ///< Summed traced op time.
  double FanoutMs = 0;   ///< Summed untraced time minus traced layer spans.
  std::vector<Span> Spans;
};

TracedWorkload traceWorkload(const char *Name, const Args &A, Tally &T) {
  TracedWorkload R;
  R.Name = Name;
  std::unique_ptr<Workload> W = makeWorkload(Name);
  Tracer SetupTracer;
  W->setup(A.Seed, &SetupTracer);
  R.SetupSelf = SetupTracer.selfTimes();
  const std::size_t N = W->numInputs();
  DigestGate Gate(recordedDigests(A.Digests, Name, A.Seed), N,
                  A.CorruptExpected);

  // One untraced pass: the reference verdicts and op times.
  std::vector<double> UntracedMs(N);
  for (std::size_t I = 0; I < N; ++I) {
    Clock::time_point T0 = Clock::now();
    OpOutcome O = W->run(I, nullptr);
    UntracedMs[I] = msSince(T0);
    if (!Gate.check(I, O.Digest))
      fail(O, "output digest differs from the expected");
    T.note(O.Correct, std::string(Name) + " untraced input " +
                          std::to_string(I) + ": " + O.Why);
  }

  Tracer Tr;
  Clock::time_point Start = Clock::now();
  const double BudgetMs = A.Seconds * 1000 / 4;
  std::uint64_t OpId = 0;
  do {
    for (std::size_t I = 0; I < N; ++I) {
      Tr.beginOp(++OpId);
      const std::size_t OpSpan = Tr.spans().size();
      Clock::time_point T0 = Clock::now();
      OpOutcome O;
      {
        Tracer::Scope S(&Tr, "op");
        O = W->run(I, &Tr);
      }
      R.TracedMs += msSince(T0);
      R.UntracedMs += UntracedMs[I];
      // The op span's children are the traced layer parts.
      R.FanoutMs += UntracedMs[I] - Tr.spans()[OpSpan].ChildMs;
      // The traced verdict must equal the untraced one.
      if (!Gate.check(I, O.Digest))
        fail(O, "traced verdict differs from the untraced");
      T.note(O.Correct, std::string(Name) + " traced input " +
                            std::to_string(I) + ": " + O.Why);
      ++R.Ops;
    }
  } while (msSince(Start) < BudgetMs);

  R.Self = Tr.selfTimes();
  R.Counters = Tr.counters();
  R.Spans = Tr.spans();
  return R;
}

void writeTraceFile(const std::string &Path, const Args &A,
                    const std::vector<TracedWorkload> &Ws,
                    const std::map<std::string, std::pair<double, std::string>>
                        &Metrics) {
  std::ofstream Out(Path);
  if (!Out)
    throw std::runtime_error("cannot write " + Path);
  Out << "{\n  \"workload\": \"" << A.Workload << "\",\n  \"seed\": "
      << A.Seed << ",\n  \"per_layer\": " << metricJson(Metrics)
      << ",\n  \"workloads\": [";
  for (std::size_t I = 0; I < Ws.size(); ++I) {
    const TracedWorkload &W = Ws[I];
    Out << (I ? "," : "") << "\n    {\"name\": \"" << W.Name
        << "\", \"traced_ops\": " << W.Ops
        << ", \"untraced_ms_per_op\": " << num(W.UntracedMs / double(W.Ops))
        << ", \"traced_ms_per_op\": " << num(W.TracedMs / double(W.Ops))
        << ", \"tracing_overhead_ms_per_op\": "
        << num((W.TracedMs - W.UntracedMs) / double(W.Ops))
        << ",\n     \"spans\": [";
    for (std::size_t J = 0; J < W.Spans.size(); ++J) {
      const Span &S = W.Spans[J];
      Out << (J ? ", " : "") << "{\"op\": " << S.Op << ", \"name\": \""
          << S.Name << "\", \"parent\": " << S.Parent
          << ", \"start_ms\": " << num(S.StartMs)
          << ", \"end_ms\": " << num(S.EndMs) << "}";
    }
    Out << "]}";
  }
  Out << "\n  ]\n}\n";
}

int runTraced(const Args &A) {
  Tally T;
  std::vector<TracedWorkload> Ws;
  for (const char *Name : WorkloadNames)
    Ws.push_back(traceWorkload(Name, A, T));
  auto Find = [&Ws](const char *Name) -> const TracedWorkload & {
    for (const TracedWorkload &W : Ws)
      if (W.Name == Name)
        return W;
    throw std::logic_error("no traced workload " + std::string(Name));
  };

  std::map<std::string, std::pair<double, std::string>> M;
  for (const LayerMetric &L : layerMetrics()) {
    double Sum = 0, Ops = 0;
    for (const char *H : L.Homes) {
      const TracedWorkload &W = Find(H);
      auto Get = [](const std::map<std::string, double> &Map,
                    const char *Key) {
        auto It = Map.find(Key);
        return It == Map.end() ? 0.0 : It->second;
      };
      switch (L.Src) {
      case Source::Span:
        Sum += Get(W.Self, L.Name);
        break;
      case Source::Counter:
        Sum += Get(W.Counters, L.Name);
        break;
      case Source::Setup:
        Sum += Get(W.SetupSelf, L.Name);
        break;
      case Source::Fanout:
        Sum += W.FanoutMs;
        break;
      }
      Ops += L.Src == Source::Setup ? 1 : double(W.Ops);
    }
    M[L.Name] = {Sum / Ops, L.Unit};
  }

  for (const TracedWorkload &W : Ws)
    std::printf("tracing overhead on %s: %.4g ms per op (traced %.4g ms, "
                "untraced %.4g ms, %zu traced ops)\n",
                W.Name.c_str(), (W.TracedMs - W.UntracedMs) / double(W.Ops),
                W.TracedMs / double(W.Ops), W.UntracedMs / double(W.Ops),
                W.Ops);
  std::string Path = A.Out + "/trace-" + A.Workload + "-" +
                     std::to_string(A.Seed) + ".json";
  writeTraceFile(Path, A, Ws, M);
  std::printf("per-layer spans written to %s\n", Path.c_str());
  printResult(T, M);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  try {
    return A.Trace ? runTraced(A) : runUntraced(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
