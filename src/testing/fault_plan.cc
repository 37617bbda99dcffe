#include "testing/fault_plan.h"

#include <array>
#include <charconv>
#include <cstring>

namespace netlock::testing {
namespace {

// Serialization names, indexed by FaultKind. Append-only: replay tokens
// embedded in CI logs and bug reports must keep parsing.
constexpr std::array<const char*, 16> kKindNames = {
    "loss",   "dup",    "reorder", "jitter", "clear",
    "part",   "burst",  "failsw",  "recsw",  "failsrv",
    "recsrv", "downsw", "upsw",    "realloc", "rehome",
    "failhead",
};

bool ParseU64(std::string_view s, std::uint64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool ParseAction(std::string_view text, FaultAction* out) {
  std::array<std::string_view, 5> fields;
  std::size_t n = 0;
  while (n < fields.size()) {
    const std::size_t colon = text.find(':');
    fields[n++] = text.substr(0, colon);
    if (colon == std::string_view::npos) break;
    text.remove_prefix(colon + 1);
  }
  if (n != fields.size()) return false;
  bool found = false;
  for (std::size_t k = 0; k < kKindNames.size(); ++k) {
    if (fields[0] == kKindNames[k]) {
      out->kind = static_cast<FaultKind>(k);
      found = true;
      break;
    }
  }
  std::uint64_t at = 0, duration = 0, target = 0, value = 0;
  if (!found || !ParseU64(fields[1], &at) || !ParseU64(fields[2], &duration) ||
      !ParseU64(fields[3], &target) || !ParseU64(fields[4], &value)) {
    return false;
  }
  out->at = static_cast<SimTime>(at);
  out->duration = static_cast<SimTime>(duration);
  out->target = static_cast<std::uint32_t>(target);
  out->value = static_cast<std::uint32_t>(value);
  return true;
}

}  // namespace

const char* ToString(FaultKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  return index < kKindNames.size() ? kKindNames[index] : "?";
}

bool FaultPlan::PerturbsDelivery() const {
  for (const FaultAction& action : actions) {
    switch (action.kind) {
      case FaultKind::kLoss:
      case FaultKind::kDuplicate:
      case FaultKind::kReorder:
      case FaultKind::kJitter:
        if (action.value > 0) return true;
        break;
      case FaultKind::kClientPartition:
      case FaultKind::kLeaseExpiryBurst:
        return true;
      default:
        break;
    }
  }
  return false;
}

bool FaultPlan::NeedsBackup() const {
  for (const FaultAction& action : actions) {
    if (action.kind == FaultKind::kFailPrimary) return true;
  }
  return false;
}

bool FaultPlan::NeedsChain() const {
  for (const FaultAction& action : actions) {
    if (action.kind == FaultKind::kFailHead) return true;
  }
  return false;
}

bool FaultPlan::Benign() const {
  for (const FaultAction& action : actions) {
    if (action.kind != FaultKind::kClearFaults) return false;
  }
  return true;
}

std::string FaultPlan::Serialize() const {
  std::string out;
  for (const FaultAction& action : actions) {
    if (!out.empty()) out += ',';
    out += ToString(action.kind);
    out += ':';
    out += std::to_string(action.at);
    out += ':';
    out += std::to_string(action.duration);
    out += ':';
    out += std::to_string(action.target);
    out += ':';
    out += std::to_string(action.value);
  }
  return out;
}

bool FaultPlan::Parse(std::string_view text, FaultPlan* out) {
  out->actions.clear();
  if (text.empty()) return true;
  while (true) {
    const std::size_t comma = text.find(',');
    FaultAction action;
    if (!ParseAction(text.substr(0, comma), &action)) return false;
    out->actions.push_back(action);
    if (comma == std::string_view::npos) return true;
    text.remove_prefix(comma + 1);
  }
}

}  // namespace netlock::testing
