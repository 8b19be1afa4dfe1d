#include "runtime/flags.hpp"

#include <cstdlib>

namespace radiocast::runtime {

namespace {

FlagOutcome ok() { return {FlagStatus::kOk, {}}; }

FlagOutcome error(std::string message) {
  return {FlagStatus::kError, std::move(message)};
}

}  // namespace

std::string backend_flag_values(bool allow_compiled) {
  return allow_compiled ? "auto, scalar, bit, or compiled"
                        : "auto, scalar, or bit";
}

std::string dispatch_flag_values() { return "auto, scan, or active"; }

FlagOutcome parse_execution_flag(std::string_view flag, const char* value,
                                 bool allow_compiled,
                                 ExecutionConfig& config) {
  if (flag == "--backend") {
    if (value == nullptr) {
      return error("--backend requires " + backend_flag_values(allow_compiled));
    }
    if (allow_compiled && std::string_view(value) == "compiled") {
      config.compiled = true;
      return ok();
    }
    const auto parsed = sim::parse_backend(value);
    if (!parsed) {
      return error(std::string("unknown backend '") + value + "' (expected " +
                   backend_flag_values(allow_compiled) + ")");
    }
    config.backend = *parsed;
    config.compiled = false;  // last --backend wins, like the string parser
    return ok();
  }
  if (flag == "--dispatch") {
    if (value == nullptr) {
      return error("--dispatch requires " + dispatch_flag_values());
    }
    const auto parsed = sim::parse_dispatch(value);
    if (!parsed) {
      return error(std::string("unknown dispatch '") + value + "' (expected " +
                   dispatch_flag_values() + ")");
    }
    config.dispatch = *parsed;
    return ok();
  }
  if (flag == "--threads") {
    if (value == nullptr) return error("--threads requires a count");
    char* end = nullptr;
    const unsigned long long t = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || value[0] == '-' || t > 4096) {
      return error("--threads must be an integer in [0, 4096]");
    }
    config.threads = static_cast<std::size_t>(t);
    return ok();
  }
  if (flag == "--faults") {
    if (value == nullptr) {
      return error("--faults requires clauses like " +
                   std::string(faults_flag_values()));
    }
    auto parsed = sim::parse_fault_plan(value);
    if (!parsed.ok) return error(std::move(parsed.error));
    config.faults = std::move(parsed.plan);
    return ok();
  }
  return {FlagStatus::kNotMine, {}};
}

std::string_view faults_flag_values() {
  return "edge-loss:P[:SEED],crash:V:R0:R1,jam:R0[:R1]";
}

}  // namespace radiocast::runtime
