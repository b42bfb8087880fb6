//===- trace/marker_specs.h - Marker-function specifications (§3.1) -------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §3.1 specifies each marker function as a separation-logic triple
/// over two ghost assertions — current_trace tr (the trace emitted so
/// far) and currently_pending js (the read-but-undispatched jobs) —
/// e.g. for idling_start():
///
///   [[rc::parameters("tr : list marker", "js : gset job")]]
///   [[rc::requires("current_trace tr", "currently_pending js")]]
///   [[rc::requires("{last tr = M_Selection}", "{js = ∅}")]]
///   [[rc::ensures("current_trace (tr ++ [M_Idling])")]]
///
/// MarkerSpecChecker is the executable rendering: it owns the ghost
/// state and validates every marker call against its contract —
/// precondition on the last trace element and the pending set,
/// postcondition as the ghost-state update. RefinedC *proves* these
/// triples hold for Rössl's C code; here the contracts are *checked*
/// against each concrete call sequence, and fault-injection tests
/// confirm each contract rejects its specific violation.
///
/// Although the ghost current_trace assertion denotes the whole prefix,
/// every §3.1 precondition only ever inspects `last tr`, so the checker
/// carries just the last marker plus a call counter — together with the
/// pending set (retired at dispatch) and the freshness id-set (stored
/// as merged intervals), its state is O(open jobs), not O(trace), so it
/// can check an unbounded marker stream.
///
/// (The global round-robin structure of the polling phase is the
/// protocol STS's business — Def. 3.1; the contracts here are the
/// local, per-call obligations of §3.1.)
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TRACE_MARKER_SPECS_H
#define RPROSA_TRACE_MARKER_SPECS_H

#include "trace/trace.h"

#include "core/policy.h"
#include "core/task.h"
#include "support/check.h"
#include "support/interval_set.h"

#include <map>
#include <optional>

namespace rprosa {

/// Replays marker calls against their §3.1 contracts.
class MarkerSpecChecker {
public:
  explicit MarkerSpecChecker(const TaskSet &Tasks,
                             SchedPolicy Policy = SchedPolicy::Npfp);

  /// Applies one marker call: checks its precondition, then performs
  /// the postcondition's ghost-state update (so later contracts are
  /// still meaningful after a violation).
  void step(const MarkerEvent &E);

  /// All contract violations found so far.
  const CheckResult &result() const { return Result; }

  /// Marker calls applied so far (|current_trace|).
  std::size_t position() const { return Pos; }

  /// The ghost currently_pending assertion (jobs, in read order).
  std::vector<Job> currentlyPending() const;

  /// |currently_pending| — the read-but-undispatched jobs held live.
  std::size_t pendingJobs() const { return Pending.size(); }

private:
  void fail(std::string Why);

  const TaskSet &Tasks;
  SchedPolicy Policy;
  CheckResult Result;
  std::optional<MarkerEvent> Last; // last current_trace element.
  std::size_t Pos = 0;             // |current_trace|.
  std::map<JobId, Job> Pending;    // Keyed by id; read order = id order.
  IdIntervalSet EverRead;
};

/// Replays a whole trace; passes iff every call met its contract.
CheckResult checkMarkerSpecs(const Trace &Tr, const TaskSet &Tasks,
                             SchedPolicy Policy = SchedPolicy::Npfp);

} // namespace rprosa

#endif // RPROSA_TRACE_MARKER_SPECS_H
