//===- support/check.h - Diagnostic accumulation for trace checkers -------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CheckResult accumulates the outcome of a verification pass (protocol
/// acceptance, functional correctness, consistency, validity, ...).
///
/// The library is exception-free: every checker returns a CheckResult
/// instead of throwing, and the adequacy pipeline aggregates them. Each
/// failure carries a human-readable message so that a rejected trace can
/// be diagnosed (the executable analogue of a failed Rocq proof goal).
///
/// RPROSA_CHECK guards *API preconditions* whose violation is a caller
/// bug, not a property of the analyzed system: out-of-range ids,
/// out-of-order socket deliveries. Unlike assert it stays armed in
/// Release builds — a violated precondition aborts with a diagnostic
/// instead of silently reading out of bounds or corrupting state.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_SUPPORT_CHECK_H
#define RPROSA_SUPPORT_CHECK_H

#include <cstddef>
#include <string>
#include <vector>

namespace rprosa {

namespace detail {
/// Prints "<file>:<line>: check failed: <cond> (<what>)" to stderr and
/// aborts. Out-of-line so the macro expands to a single branch.
[[noreturn]] void checkFailed(const char *Cond, const char *What,
                              const char *File, int Line);
} // namespace detail

/// A precondition check that is active in every build type. \p What
/// states the violated contract in caller terms.
#define RPROSA_CHECK(Cond, What)                                           \
  (static_cast<bool>(Cond)                                                 \
       ? static_cast<void>(0)                                              \
       : ::rprosa::detail::checkFailed(#Cond, What, __FILE__, __LINE__))

/// Outcome of one verification pass: a pass/fail flag plus diagnostics.
class CheckResult {
public:
  CheckResult() = default;

  /// Returns a failing result carrying a single diagnostic.
  static CheckResult failure(std::string Message) {
    CheckResult R;
    R.addFailure(std::move(Message));
    return R;
  }

  /// Records a failed check. The message should state the violated
  /// property and where in the trace/schedule it was violated.
  void addFailure(std::string Message) {
    Failures.push_back(std::move(Message));
  }

  /// Merges the diagnostics of another result into this one.
  void merge(const CheckResult &Other) {
    Failures.insert(Failures.end(), Other.Failures.begin(),
                    Other.Failures.end());
    ChecksPerformed += Other.ChecksPerformed;
  }

  /// Bumps the count of elementary checks performed (used by the E9
  /// "checking effort" experiment).
  void noteCheck(std::size_t N = 1) { ChecksPerformed += N; }

  bool passed() const { return Failures.empty(); }
  explicit operator bool() const { return passed(); }

  const std::vector<std::string> &failures() const { return Failures; }
  std::size_t checksPerformed() const { return ChecksPerformed; }

  /// Renders all failure diagnostics, one per line (empty when passing).
  std::string describe() const;

private:
  std::vector<std::string> Failures;
  std::size_t ChecksPerformed = 0;
};

} // namespace rprosa

#endif // RPROSA_SUPPORT_CHECK_H
