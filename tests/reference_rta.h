//===- tests/reference_rta.h - Per-policy busy-window analyses ------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The response-time analyses as they stood before the library wrote
/// the aRSA busy-window walk once (rta/arsa.h): NpfpAnalysis for NPFP,
/// OrderDrivenAnalysis for NP-FIFO and NP-EDF, each with its own copy
/// of the seeded busy-window fixpoint, the offset walk, the cap and
/// offset-budget exits and R_i + J_i, over the shared setUpAnalysis.
/// The bodies are the library's former ones; only the namespace changed
/// (so analyzePolicy qualifies its calls against argument-dependent
/// lookup), and RtaConfig's offset budget became the constant
/// MaxOffsets.
/// rta_reference_test runs them against the library on random systems
/// and compares every result field and fixpoint counter. Compiled into
/// that test only; no library target links them.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_REFERENCE_RTA_H
#define RPROSA_TESTS_REFERENCE_RTA_H

#include "rta/rta_policies.h"

namespace rprosa::reference {

RtaResult analyzeNpfp(const TaskSet &Tasks, const BasicActionWcets &W,
                      std::uint32_t NumSockets, const RtaConfig &Cfg = {});

RtaResult analyzeNpfp(const TaskSet &Tasks, const TimingInputs &In,
                      std::uint32_t NumSockets, const RtaConfig &Cfg = {});

RtaResult analyzeFifo(const TaskSet &Tasks, const BasicActionWcets &W,
                      std::uint32_t NumSockets, const RtaConfig &Cfg = {});

RtaResult analyzeEdf(const TaskSet &Tasks, const BasicActionWcets &W,
                     std::uint32_t NumSockets, const RtaConfig &Cfg = {});

RtaResult analyzePolicy(const TaskSet &Tasks, const BasicActionWcets &W,
                        std::uint32_t NumSockets, SchedPolicy Policy,
                        const RtaConfig &Cfg = {});

} // namespace rprosa::reference

#endif // RPROSA_TESTS_REFERENCE_RTA_H
