//===- core/policy.h - Scheduling policies ---------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduling policies supported by this reproduction. Rössl's
/// policy in the paper is NPFP (non-preemptive fixed priority); the EDF
/// and FIFO variants are the natural extensions suggested by the
/// related work (ProKOS verifies FP *and* EDF, §6; Prosa ships a
/// verified FIFO RTA). All three are non-preemptive and interrupt-free:
/// only the selection rule of npfp_dequeue changes.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CORE_POLICY_H
#define RPROSA_CORE_POLICY_H

#include "core/task.h"

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace rprosa {

enum class SchedPolicy : std::uint8_t {
  /// Non-preemptive fixed priority (the paper's Rössl).
  Npfp,
  /// Non-preemptive earliest deadline first; a job's absolute deadline
  /// is its read time plus the task's relative deadline.
  Edf,
  /// Non-preemptive FIFO by read order.
  Fifo,
};

inline std::string toString(SchedPolicy P) {
  switch (P) {
  case SchedPolicy::Npfp:
    return "NPFP";
  case SchedPolicy::Edf:
    return "NP-EDF";
  case SchedPolicy::Fifo:
    return "NP-FIFO";
  }
  return "?";
}

/// Def. 3.2's selection key: a policy-compliant selection takes a
/// pending job with the smallest key. NPFP keys a job by its task's
/// priority, inverted; NP-EDF by its absolute deadline, the read time
/// \p ReadAt plus the task's relative deadline; NP-FIFO by its id \p Id,
/// i.e. read order. \p T is the job's task, null if the task set does
/// not know it. A job of an unknown task has no key, and neither has an
/// NP-EDF job whose task has no deadline (D = 0).
inline std::optional<std::uint64_t> policyKey(SchedPolicy P, const Task *T,
                                              Time ReadAt, JobId Id) {
  if (!T)
    return std::nullopt;
  switch (P) {
  case SchedPolicy::Npfp:
    return std::numeric_limits<std::uint64_t>::max() - T->Prio;
  case SchedPolicy::Edf:
    if (T->Deadline == 0)
      return std::nullopt;
    return satAdd(ReadAt, T->Deadline);
  case SchedPolicy::Fifo:
    return Id;
  }
  return std::nullopt;
}

} // namespace rprosa

#endif // RPROSA_CORE_POLICY_H
