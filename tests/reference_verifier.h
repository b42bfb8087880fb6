//===- tests/reference_verifier.h - String-keyed protocol model check -----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// verifyProtocol as it stood before the search paid per distinct state
/// (analysis/verifier.h): each transition builds a full AbsState copy,
/// its byte-string key for an unordered_set<std::string>, the label of
/// the executed CFG node and a vector of the edge's markers, and throws
/// them away when the key was already visited. The body is the
/// library's former one; only the namespace changed, and the removed
/// AbsState::key() lives on here as stateKey. verifier_reference_test
/// runs it against the library and compares every Verdict field.
/// Compiled into tests only; no library target links it.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_REFERENCE_VERIFIER_H
#define RPROSA_TESTS_REFERENCE_VERIFIER_H

#include "analysis/verifier.h"

#include <string>

namespace rprosa::reference {

/// A canonical byte string identifying \p S up to acceptance behaviour:
/// the visited-set key of the string-keyed search.
std::string stateKey(const analysis::AbsState &S);

/// Model-checks \p G against the protocol STS for \p NumSockets
/// sockets, with constants clamped at registerBound(NumSockets).
analysis::Verdict verifyProtocol(const analysis::Cfg &G,
                                 std::uint32_t NumSockets);

} // namespace rprosa::reference

#endif // RPROSA_TESTS_REFERENCE_VERIFIER_H
