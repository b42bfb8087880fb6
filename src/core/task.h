//===- core/task.h - Task types and task sets (statics, §4.1) -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *statics* of the abstract model (§4.1): a set of n distinct task
/// types τ_1..τ_n, each with a callback WCET C_i, a fixed priority P_i,
/// and an arrival curve α_i.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CORE_TASK_H
#define RPROSA_CORE_TASK_H

#include "core/arrival_curve.h"
#include "core/ids.h"
#include "core/time.h"
#include "support/check.h"

#include <string>
#include <vector>

namespace rprosa {

/// One task type: the common characteristics of the jobs that run its
/// callback.
struct Task {
  TaskId Id = InvalidTaskId;
  std::string Name;
  /// Callback worst-case execution time C_i (Thm. 5.1 requires > 0).
  Duration Wcet = 0;
  /// Fixed priority P_i; larger value = higher priority. Used by the
  /// NPFP policy (Rössl's default); ignored by EDF/FIFO.
  Priority Prio = 0;
  /// Relative deadline D_i, used by the EDF policy extension (the job's
  /// EDF key is its read time + D_i). 0 means "not specified"; the EDF
  /// scheduler and analysis reject such tasks.
  Duration Deadline = 0;
  /// Arrival curve α_i bounding this task's job arrival rate.
  ArrivalCurvePtr Curve;
};

/// An immutable-after-setup collection of tasks, indexed by TaskId.
class TaskSet {
public:
  /// Adds a task and returns its id (ids are assigned densely, in
  /// insertion order). \p Deadline is only needed for the EDF policy.
  TaskId addTask(std::string Name, Duration Wcet, Priority Prio,
                 ArrivalCurvePtr Curve, Duration Deadline = 0);

  /// The largest callback WCET over all tasks except \p Id (0 when
  /// alone). The non-preemptive blocking term of the deadline- and
  /// order-driven policies (EDF, FIFO), where any other task's job may
  /// have just started.
  Duration maxOtherWcet(TaskId Id) const;

  const Task &task(TaskId Id) const;
  /// The task with id \p Id, or nullptr if there is none.
  const Task *findTask(TaskId Id) const {
    return Id < Tasks.size() ? &Tasks[Id] : nullptr;
  }
  std::size_t size() const { return Tasks.size(); }
  bool empty() const { return Tasks.empty(); }

  const std::vector<Task> &tasks() const { return Tasks; }

  /// Tasks with strictly higher priority than \p Id (hp(i)).
  std::vector<TaskId> higherPriority(TaskId Id) const;
  /// Tasks with higher-or-equal priority, *excluding* \p Id itself
  /// (used with the task's own curve accounted separately).
  std::vector<TaskId> higherOrEqualPriorityOthers(TaskId Id) const;
  /// Tasks with strictly lower priority than \p Id (lp(i)).
  std::vector<TaskId> lowerPriority(TaskId Id) const;

  /// The largest callback WCET among tasks with lower priority than
  /// \p Id; 0 when there is none. This is the non-preemptive blocking
  /// source of the NPFP analysis.
  Duration maxLowerPriorityWcet(TaskId Id) const;

  /// Checks the model's static side conditions: non-empty, C_i > 0,
  /// curves present and well-formed.
  CheckResult validate(Duration CurveProbeHorizon = 100 * TickMs) const;

private:
  std::vector<Task> Tasks;
};

} // namespace rprosa

#endif // RPROSA_CORE_TASK_H
