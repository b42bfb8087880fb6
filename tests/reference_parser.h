//===- tests/reference_parser.h - The pre-refactor frontend ---------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pre-refactor two-pass frontend, built as its own static library
/// (rp_caesium_reference, defined in tests/) that only the round-trip
/// fuzz suite and the E24 bench link: no tool carries it.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_REFERENCE_PARSER_H
#define RPROSA_TESTS_REFERENCE_PARSER_H

#include "caesium/ast.h"

#include "support/check.h"

#include <optional>
#include <string_view>

namespace rprosa::caesium {

/// The pre-refactor frontend (materialize-all-tokens lexer, then a
/// recursive descent over the token vector), kept verbatim as the E24
/// baseline and as a differential oracle: on every input, it must
/// accept exactly when parseProgram accepts, with print-identical
/// trees. Diagnostics carry line only (the old format) — use
/// parseProgram for user-facing errors.
std::optional<StmtPtr>
parseProgramReference(AstArena &A, std::string_view Source,
                      rprosa::CheckResult *Diags = nullptr);

} // namespace rprosa::caesium

#endif // RPROSA_TESTS_REFERENCE_PARSER_H
