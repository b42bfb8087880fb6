//===- sim/cost_model.h - Sampled execution times for basic actions -------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper assumes every basic action and callback runs within its
/// WCET (§2.5). The cost model is the substrate's source of *actual*
/// durations: it samples each basic action's run time, by default never
/// exceeding the WCET. A deliberately violating mode exists for fault
/// injection (the WCET checker must flag such runs, and Thm. 5.1's
/// guarantee is void for them).
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_SIM_COST_MODEL_H
#define RPROSA_SIM_COST_MODEL_H

#include "core/task.h"
#include "core/wcet.h"
#include "support/rng.h"

namespace rprosa {

/// How actual durations relate to the WCETs.
enum class CostModelKind : std::uint8_t {
  /// Every action takes exactly its WCET (the adversarial case the
  /// analysis is calibrated against).
  AlwaysWcet,
  /// Uniformly distributed in [1, WCET] (a "realistic" run).
  Uniform,
  /// A fixed fraction of the WCET (deterministic, fast runs).
  HalfWcet,
  /// FAULT INJECTION: occasionally exceeds the WCET (~1 in 64 samples,
  /// by up to 2x). Violates the assumptions of Thm. 5.1 on purpose.
  ViolatingOccasionally,
};

/// Deterministic per-statement costs of the deep embedding's *non-marker*
/// steps (assignments, branch tests, the scheduler-queue builtins, frees).
/// The native C++ scheduler folds these into its basic-action WCETs; the
/// embedded interpreter can charge them explicitly so that the static
/// timing analysis (analysis/timing) has observable instruction-level
/// costs to bound. All zero by default, which keeps the embedded machine
/// bit-identical to the native scheduler (the E12 differential tests).
struct InstructionCosts {
  Duration Assign = 0;  ///< One SetReg statement.
  Duration Branch = 0;  ///< One If/While condition evaluation.
  Duration Enqueue = 0; ///< npfp_enqueue(&sched, buf).
  Duration Dequeue = 0; ///< npfp_dequeue(&sched, buf).
  Duration Free = 0;    ///< free(buf).

  /// One tick per statement: the smallest model under which every
  /// non-marker step is visible on the clock (tests and benches).
  static InstructionCosts unit() { return {1, 1, 1, 1, 1}; }
};

/// Samples concrete durations for the basic actions of one run.
class CostModel {
public:
  CostModel(const BasicActionWcets &W, CostModelKind Kind,
            std::uint64_t Seed, const InstructionCosts &Instr = {});

  Duration failedRead() { return sample(Wcets.FailedRead); }
  Duration successfulRead() { return sample(Wcets.SuccessfulRead); }
  Duration selection() { return sample(Wcets.Selection); }
  Duration dispatch() { return sample(Wcets.Dispatch); }
  Duration completion() { return sample(Wcets.Completion); }
  Duration idling() { return sample(Wcets.Idling); }
  /// The callback run time of one job of \p T (bounded by C_i).
  Duration exec(const Task &T) { return sample(T.Wcet); }

  /// The extra time a *successful* read spends after the availability
  /// poll (copying the datagram, bookkeeping). The substrate models a
  /// successful read as: poll for \p Spent ticks (the failed-read part,
  /// which determines the availability threshold), then copy for the
  /// returned extra, so that the total stays within WcetSR. Requires
  /// WcetSR >= WcetFR (checked by BasicActionWcets::validate).
  Duration readCompletionExtra(Duration Spent);

  CostModelKind kind() const { return Kind; }

  /// The deterministic non-marker statement costs this run charges
  /// (zero unless explicitly configured).
  const InstructionCosts &instr() const { return Instr; }

private:
  Duration sample(Duration Wcet);

  BasicActionWcets Wcets;
  CostModelKind Kind;
  SplitMix64 Rng;
  InstructionCosts Instr;
};

std::string toString(CostModelKind K);

} // namespace rprosa

#endif // RPROSA_SIM_COST_MODEL_H
