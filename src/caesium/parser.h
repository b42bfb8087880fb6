//===- caesium/parser.h - A C-like frontend for the embedding -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RefinedC's *frontend* — the translation from C source to the Caesium
/// embedding — is explicitly part of the paper's trusted computing base
/// (§5). This module is its executable analogue: a recursive-descent
/// parser from the C-like concrete syntax (exactly what print.h emits)
/// back into the deeply-embedded AST, so a scheduler can be written as
/// text, parsed, run under the Fig. 6 semantics, and checked:
///
///   while (fuel()) {
///     r1 = 1;
///     while (r1) { r1 = 0; r0 = 0;
///       while ((r0 < 2)) {
///         r2 = read(r0, buf0);
///         if (!(r2 == -1)) { npfp_enqueue(&sched, buf0);
///                            free(buf0); r1 = 1; }
///         r0 = (r0 + 1);
///       } }
///     selection_start();
///     r3 = npfp_dequeue(&sched, buf1);
///     if (r3) { dispatch_start(buf1); execution_start(buf1);
///               completion_start(buf1); free(buf1); }
///     else { idling_start(); }
///   }
///
/// parse ∘ print is the identity on ASTs (asserted by tests, including
/// a seeded random-AST round-trip fuzz), and the parsed Rössl source is
/// trace-equivalent to the native scheduler.
///
/// The frontend is a single-pass *streaming* lexer feeding a
/// one-token-lookahead parser (DESIGN.md §14): tokens are string_views
/// into the source, produced on demand by a state-stack scanner — no
/// token vector is ever materialised, so multi-MB generated specs parse
/// in one cheap pass. Nodes go straight into the caller's AstArena.
/// The pre-refactor two-pass design survives as parseProgramReference
/// (tests/reference_parser.h, outside the library): the E24 throughput
/// baseline and the differential-fuzz oracle for the new frontend.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CAESIUM_PARSER_H
#define RPROSA_CAESIUM_PARSER_H

#include "caesium/ast.h"

#include "support/check.h"

#include <optional>
#include <string>
#include <string_view>

namespace rprosa::caesium {

/// Structured position + reason of the first parse error. Line and Col
/// are 1-based; Col points at the first character of the offending
/// token (or of the offending lexeme for lexical errors).
struct ParseDiag {
  std::uint32_t Line = 0;
  std::uint32_t Col = 0;
  std::string Reason;
};

/// Parses a program (a sequence of statements) into \p A. nullopt on
/// error; the first error is appended to \p Diags when non-null (as
/// "parse error at line L, col C: reason") and written to \p Err when
/// non-null. The returned tree lives as long as \p A.
std::optional<StmtPtr> parseProgram(AstArena &A, std::string_view Source,
                                    rprosa::CheckResult *Diags = nullptr,
                                    ParseDiag *Err = nullptr);

/// Renders a caret snippet for a parse error:
///
///   spec.rossl:3:8: parse error: expected a buffer
///     r1 = read(r0, buf9999);
///          ^
///
/// \p FileName is used verbatim in the header line; the offending
/// source line is extracted from \p Source (empty Line → header only).
std::string renderParseError(std::string_view FileName,
                             std::string_view Source, const ParseDiag &D);

} // namespace rprosa::caesium

#endif // RPROSA_CAESIUM_PARSER_H
