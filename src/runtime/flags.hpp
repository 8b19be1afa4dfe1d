/// \file flags.hpp
/// \brief Shared command-line parsing for the execution knobs.
///
/// `radiocast_cli` and `radiocast_bench` expose the same
/// `--backend/--dispatch/--threads/--faults` flags; this helper parses them
/// straight
/// into a `runtime::ExecutionConfig` so both front ends accept the same
/// values and print the same error messages.  "--backend compiled" is the
/// CLI spelling for the label-determined replay fast path and is accepted
/// only when the front end opts in (`allow_compiled`).
#pragma once

#include <string>
#include <string_view>

#include "runtime/config.hpp"

namespace radiocast::runtime {

/// Outcome of offering one argv token to the shared parser.
enum class FlagStatus : std::uint8_t {
  kNotMine,  ///< not an execution flag; the caller handles it
  kOk,       ///< consumed the flag and its value, config updated
  kError,    ///< recognized the flag but the value is missing or invalid
};

struct FlagOutcome {
  FlagStatus status = FlagStatus::kNotMine;
  std::string error;  ///< non-empty iff status == kError
};

/// Offers `flag` (the current argv token) with `value` (the next token, or
/// nullptr at argv's end) to the shared parser.  On kOk exactly one value
/// token was consumed — the caller advances its index by one.
FlagOutcome parse_execution_flag(std::string_view flag, const char* value,
                                 bool allow_compiled, ExecutionConfig& config);

/// The accepted `--backend` values, for usage strings:
/// "auto, scalar, or bit" (plus compiled when allowed).
std::string backend_flag_values(bool allow_compiled);

/// The accepted `--dispatch` values, for usage strings.
std::string dispatch_flag_values();

/// The `--faults` clause grammar, for usage strings (sim/faults.hpp).
std::string_view faults_flag_values();

}  // namespace radiocast::runtime
