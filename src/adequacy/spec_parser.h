//===- adequacy/spec_parser.h - Text format for system models -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small text format describing a system to analyze — what a user of
/// the library would keep next to their scheduler deployment (see
/// examples/rp_analyze.cpp):
///
///   # comments and blank lines are ignored
///   system lidar-node           # optional
///   sockets 4
///   policy npfp                  # npfp | edf | fifo (default npfp)
///   wcets fr 400ns sr 900ns sel 300ns disp 250ns compl 350ns idle 2us
///   task lidar  wcet 800us prio 4 curve periodic 25ms
///   task diag   wcet 500us prio 1 curve bucket 3 200ms
///   task fused  wcet 1ms   prio 2 deadline 10ms curve periodic-jitter 20ms 1ms
///
/// Time literals accept the suffixes ns, us, ms, s (bare numbers are
/// ticks = ns). Fields, numbers and time literals follow the grammar of
/// DESIGN.md §9: fields are separated by space, tab or CR; `prio` is a
/// 32-bit field; a field after the last one of a `system`, `sockets` or
/// `policy` line is an error.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ADEQUACY_SPEC_PARSER_H
#define RPROSA_ADEQUACY_SPEC_PARSER_H

#include "rossl/client.h"
#include "support/check.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rprosa {

/// A parsed system description.
struct SystemSpec {
  std::string Name = "unnamed";
  ClientConfig Client;
};

/// The socket counts the spec and the CLIs accept: [1, MaxSockets].
inline constexpr std::uint32_t MaxSockets = 4096;

/// Parses \p Text as a socket count in [1, MaxSockets]; nullopt if it
/// is not one.
std::optional<std::uint32_t> parseSocketCount(std::string_view Text);

/// Parses the spec format; nullopt on error with the reason appended to
/// \p Diags when non-null.
std::optional<SystemSpec> parseSystemSpec(const std::string &Text,
                                          CheckResult *Diags = nullptr);

} // namespace rprosa

#endif // RPROSA_ADEQUACY_SPEC_PARSER_H
