//===- trace/basic_actions.h - Segmenting traces into basic actions -------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The basic actions of Fig. 4:
///
///   basic_actions ≜ Read sock j⊥ | Selection j⊥ | Disp j | Exec j
///                 | Compl j | Idling
///
/// Marker functions mark the *start* of a basic action; "in some cases
/// it only becomes clear later which basic action it is" (§2.2): a
/// M_Selection opens either Selection j (next marker is M_Dispatch j) or
/// Selection ⊥ (next marker is M_Idling), and M_ReadS + M_ReadE coalesce
/// into one Read action. This parser performs that (one-marker
/// look-ahead) resolution and computes each action's time span.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TRACE_BASIC_ACTIONS_H
#define RPROSA_TRACE_BASIC_ACTIONS_H

#include "trace/trace.h"

#include <optional>
#include <vector>

namespace rprosa {

enum class BasicActionKind : std::uint8_t {
  Read,      ///< Read sock j⊥ — one read system call (success or failure).
  Selection, ///< Selection j⊥ — choosing the next job (or failing to).
  Disp,      ///< Disp j — initiating the callback.
  Exec,      ///< Exec j — the callback runs.
  Compl,     ///< Compl j — cleanup after the callback.
  Idling,    ///< Idling — one idle cycle (no pending jobs).
};

/// One basic action with its marker span and time span.
struct BasicAction {
  BasicActionKind Kind = BasicActionKind::Idling;
  /// The job parameter (⊥ for failed reads / failed selection / idling).
  std::optional<Job> J;
  /// The socket (Read only).
  SocketId Socket = 0;
  /// Marker index range [FirstMarker, EndMarker) covered by this action.
  std::size_t FirstMarker = 0;
  std::size_t EndMarker = 0;
  /// Time span [Start, End).
  Time Start = 0;
  Time End = 0;

  Duration len() const { return End - Start; }
};

/// Parses a timed trace into its basic actions by feeding it through
/// ActionSegmenter (trace/stream.h). Precondition: one timestamp per
/// marker (RPROSA_CHECK). The parse only relies on local marker shapes
/// and accepts any marker sequence; on a protocol violation it stays
/// total: the marker after an M_ReadS is taken as the read result
/// whatever its kind, a dangling M_ReadE becomes an Idling action, and a
/// trace that ends on a bare M_ReadS ends with a failed Read up to
/// EndTime. checkProtocol reports each of these shapes.
std::vector<BasicAction> segmentBasicActions(const TimedTrace &TT);

std::string toString(BasicActionKind K);

} // namespace rprosa

#endif // RPROSA_TRACE_BASIC_ACTIONS_H
