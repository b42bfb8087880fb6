//===- perfbench/src/common.h - Shared benchmark plumbing -----------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload of the end-to-end benchmark shares: the
/// workload interface, the span tracer of the traced run, output
/// digests, and the clock.
///
/// Spans are recorded from the benchmark's own code around calls into
/// the library's modules (the layers); the library itself is untouched.
/// A span's self time is its duration minus the durations of its child
/// spans. The tracer is null in the untraced run, so untraced ops pay
/// nothing for it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "support/rng.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// 64-bit FNV-1a over rendered output: the per-op output digest.
std::uint64_t fnv1a(std::string_view S, std::uint64_t H = 0xcbf29ce484222325ull);
std::string hex64(std::uint64_t V);

/// One closed span of the traced run.
struct Span {
  std::string Name;
  std::uint64_t Op = 0; ///< Spans of one op share this id.
  int Parent = -1;      ///< Index of the enclosing span, -1 = none.
  double StartMs = 0;
  double EndMs = 0;
  double ChildMs = 0;   ///< Summed duration of direct children.
};

/// In-memory span and counter recorder for the traced run.
class Tracer {
public:
  /// RAII span; a null tracer makes it a no-op.
  class Scope {
  public:
    Scope(Tracer *T, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int Id = -1;
  };

  void beginOp(std::uint64_t Op) { CurOp = Op; }
  /// Adds \p V to the named counter.
  void count(const std::string &Name, double V) { Counters[Name] += V; }
  /// Adds an explicitly measured self time (for parts derived rather
  /// than spanned, e.g. a time with a separately measured call removed).
  void addSelf(const std::string &Name, double Ms) { ExtraSelf[Name] += Ms; }

  /// Summed self time per span name (plus addSelf contributions).
  std::map<std::string, double> selfTimes() const;
  const std::map<std::string, double> &counters() const { return Counters; }
  const std::vector<Span> &spans() const { return Spans; }

private:
  double nowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - Epoch)
        .count();
  }

  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
  std::map<std::string, double> Counters;
  std::map<std::string, double> ExtraSelf;
  std::uint64_t CurOp = 0;
};

/// What one op reports back to the driver.
struct OpOutcome {
  /// The op's known answer held (see each workload's checks).
  bool Correct = true;
  /// Digest of the op's rendered output.
  std::uint64_t Digest = 0;
  /// Workload-specific work units (markers, bytes, points, verdicts).
  double Markers = 0;
  double Bytes = 0;
  double Points = 0;
  double Decided = 0;
  double Decisions = 0;
  /// First failure, for the log.
  std::string Why;
};

/// One benchmark workload: inputs built from a seed in setup(), then
/// ops run closed-loop over them, input by input.
class Workload {
public:
  virtual ~Workload() = default;
  /// Builds every input of the run from \p Seed (timed as set-up).
  virtual void setup(std::uint64_t Seed, Tracer *T) = 0;
  virtual std::size_t numInputs() const = 0;
  /// Runs one op on input \p I. With \p T non-null the op runs its
  /// traced form: every layer call in its own span.
  virtual OpOutcome run(std::size_t I, Tracer *T) = 0;
};

std::unique_ptr<Workload> makeAdequacyDense();
std::unique_ptr<Workload> makeTraceReplay();
std::unique_ptr<Workload> makeRtaSweep();
std::unique_ptr<Workload> makeStaticVerify();

/// A factor uniform in [1 - Rel, 1 + Rel]. Workloads fix the shape of
/// their inputs (sizes, counts) and let the seed perturb parameters by
/// such factors, so every seed costs about the same.
inline double perturb(rprosa::SplitMix64 &Rng, double Rel) {
  return 1 + Rel * (2 * double(Rng.nextInRange(0, 1 << 20)) / (1 << 20) - 1);
}

/// Appends a failed check to \p O.
inline void fail(OpOutcome &O, const std::string &Why) {
  if (O.Correct)
    O.Why = Why;
  O.Correct = false;
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
