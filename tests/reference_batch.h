//===- tests/reference_batch.h - Batch §2.4 reference implementations -----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Independent whole-trace implementations of the §2.4 pipeline, kept
/// for the tests that compare the library against them:
///
///  - segmentBasicActions: the Fig. 4 basic-action parser as one loop
///    over the marker vector;
///  - convertTraceToSchedule: the finite look-ahead conversion over the
///    materialized action vector;
///  - checkValidity: the validity constraints (a)-(e) over a
///    materialized ConversionResult, one loop per constraint block.
///
/// The library implements §2.4 once, as streaming sinks
/// (ActionSegmenter, ScheduleBuilder, StreamingValidity); its batch
/// entry points are replay adapters over them. These references share
/// no conversion or validity code with the sinks, so they stay an
/// oracle for new RPROSA_FUZZ_SEED values. Compiled into the comparing
/// test binaries only; no library target links them.
///
/// One deliberate difference from the original batch parser: a trace
/// that ends on a bare M_ReadS yields a failed Read action ending at
/// EndTime instead of reading past the end of the marker vector.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_REFERENCE_BATCH_H
#define RPROSA_TESTS_REFERENCE_BATCH_H

#include "convert/trace_to_schedule.h"
#include "core/arrival_sequence.h"
#include "core/policy.h"
#include "core/task.h"
#include "core/wcet.h"
#include "support/check.h"
#include "trace/basic_actions.h"

#include <vector>

namespace rprosa::reference {

std::vector<BasicAction> segmentBasicActions(const TimedTrace &TT);

ConversionResult convertTraceToSchedule(const TimedTrace &TT,
                                        std::uint32_t NumSockets,
                                        CheckResult *Diags = nullptr);

CheckResult checkValidity(const ConversionResult &CR, const TaskSet &Tasks,
                          const ArrivalSequence &Arr,
                          const BasicActionWcets &W,
                          std::uint32_t NumSockets,
                          SchedPolicy Policy = SchedPolicy::Npfp);

} // namespace rprosa::reference

#endif // RPROSA_TESTS_REFERENCE_BATCH_H
