#include "support/fault_injection.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/env.hpp"

namespace fairchain {

namespace {

std::uint64_t ParseCount(const std::string& text, const char* what) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(std::string("FAIRCHAIN_FAULT: ") + what +
                                " must be a non-negative integer, got '" +
                                text + "'");
  }
  return std::stoull(text);
}

}  // namespace

bool FaultSpec::Matches(std::string_view at_site, std::uint64_t at_index,
                        std::uint64_t count) const {
  return site == at_site && index == at_index && count == nth;
}

FaultSpec ParseFaultSpec(const std::string& text) {
  std::vector<std::string> fields;
  std::size_t begin = 0;
  while (fields.size() < 3) {
    const std::size_t colon = text.find(':', begin);
    if (colon == std::string::npos) break;
    fields.push_back(text.substr(begin, colon - begin));
    begin = colon + 1;
  }
  fields.push_back(text.substr(begin));
  if (fields.size() != 4) {
    throw std::invalid_argument(
        "FAIRCHAIN_FAULT: expected <site>:<index>:<nth>:<action>, got '" +
        text + "'");
  }
  FaultSpec spec;
  spec.site = fields[0];
  if (spec.site.empty()) {
    throw std::invalid_argument("FAIRCHAIN_FAULT: empty site in '" + text +
                                "'");
  }
  spec.index = ParseCount(fields[1], "index");
  spec.nth = ParseCount(fields[2], "nth");
  const std::string& action = fields[3];
  if (action == "kill") {
    spec.action = FaultSpec::Action::kKill;
  } else if (action.rfind("exit=", 0) == 0) {
    spec.action = FaultSpec::Action::kExit;
    spec.argument = ParseCount(action.substr(5), "exit code");
  } else if (action.rfind("stall=", 0) == 0) {
    spec.action = FaultSpec::Action::kStall;
    spec.argument = ParseCount(action.substr(6), "stall milliseconds");
  } else if (action == "throw") {
    spec.action = FaultSpec::Action::kThrow;
  } else {
    throw std::invalid_argument(
        "FAIRCHAIN_FAULT: unknown action '" + action +
        "' (known: kill, exit=<code>, stall=<ms>, throw)");
  }
  return spec;
}

std::optional<FaultSpec> ActiveFault() {
  const std::optional<std::string> value = GetEnv("FAIRCHAIN_FAULT");
  if (!value) return std::nullopt;
  return ParseFaultSpec(*value);
}

void MaybeInjectFault(std::string_view site, std::uint64_t index,
                      std::uint64_t count) {
  const std::optional<FaultSpec> fault = ActiveFault();
  if (!fault || !fault->Matches(site, index, count)) return;
  switch (fault->action) {
    case FaultSpec::Action::kKill:
#ifdef _WIN32
      std::abort();
#else
      raise(SIGKILL);
#endif
      break;
    case FaultSpec::Action::kExit:
      _Exit(static_cast<int>(fault->argument));
      break;
    case FaultSpec::Action::kStall:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(fault->argument));
      break;
    case FaultSpec::Action::kThrow:
      throw std::runtime_error(
          "FAIRCHAIN_FAULT: injected throw at " + std::string(site) + ":" +
          std::to_string(index) + ":" + std::to_string(count));
  }
}

}  // namespace fairchain
