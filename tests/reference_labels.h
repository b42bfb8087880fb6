//===- tests/reference_labels.h - Labels and trails by concatenation ------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The node labels and timing witness trails as the library built them
/// before it appended them in place (analysis/cfg.h, analysis/timing):
/// CfgNode::label(), nodeRef and nodeLabel out of operator+ temporaries,
/// one string per trail node, and TimingResult::describeTable printing
/// those strings line by line. The bodies are the library's former ones;
/// only the namespace changed, and describeTable now takes the Cfg so it
/// can render each class's trail from its node ids. The label oracle
/// suite (label_reference_test) holds the library to them byte for
/// byte. Compiled into tests only; no library target links it.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_REFERENCE_LABELS_H
#define RPROSA_TESTS_REFERENCE_LABELS_H

#include "analysis/cfg.h"
#include "analysis/timing/segment_costs.h"

#include <string>
#include <vector>

namespace rprosa::reference {

/// CfgNode::label().
std::string label(const analysis::CfgNode &N);
/// "n<Id>: <label>" for \p Node numbered \p Id (nodeLabel).
std::string nodeLabel(analysis::NodeId Id, const analysis::CfgNode &Node);
/// "n<id> (<label>)" (nodeRef).
std::string nodeRef(const analysis::Cfg &G, analysis::NodeId N);
/// One nodeLabel string per node of \p Trail.
std::vector<std::string> renderTrail(const analysis::Cfg &G,
                                     const std::vector<analysis::NodeId> &Trail);
/// TimingResult::describeTable of \p R, an analysis of \p G.
std::string describeTable(const analysis::TimingResult &R,
                          const analysis::Cfg &G);

} // namespace rprosa::reference

#endif // RPROSA_TESTS_REFERENCE_LABELS_H
