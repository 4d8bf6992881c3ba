// Deterministic fault injection for crash/kill testing.
//
// Production code marks its interesting failure points with
// MaybeInjectFault("site", index, count); the hook is a no-op unless the
// FAIRCHAIN_FAULT environment variable selects exactly that point:
//
//   FAIRCHAIN_FAULT=<site>:<index>:<nth>:<action>
//
//   site    the call-site name (e.g. shard-chunk, store-commit)
//   index   which instance of the site (e.g. the shard number; 0 when the
//           site has only one instance)
//   nth     fire when the caller's count reaches this value (counts are
//           1-based: the caller reports "how many times this point has now
//           been passed")
//   action  kill           raise(SIGKILL) — an unhandleable crash
//           exit=<code>    _exit(code)   — sudden death, no cleanup
//           stall=<ms>     sleep for <ms> milliseconds, then continue
//           throw          throw std::runtime_error naming the trigger — an
//                          in-process failure the caller must propagate
//
// Example: FAIRCHAIN_FAULT=shard-chunk:1:2:kill SIGKILLs shard worker 1
// immediately after it has streamed its 2nd result chunk.
//
// The variable is re-read on every call (getenv, no caching) so in-process
// tests can setenv/unsetenv between campaign runs, and forked shard
// workers inherit the trigger from their parent.  Sites fire at chunk /
// store-write granularity — never inside a simulation inner loop — so the
// lookup cost is irrelevant.
//
// Registered sites (keep in sync with docs/TESTING.md):
//   shard-chunk    index = shard; count = chunks fully streamed by that
//                  shard worker (fires between two chunk messages)
//   shard-message  index = shard; count = message headers written (fires
//                  after the header, before the payload — a torn message)
//   store-commit   index = 0; count = entries written (fires after the
//                  temp file is complete, before the atomic rename)
//   store-payload  index = 0; count = entries written (fires after roughly
//                  half the entry's payload bytes — a truncated temp file)
//   pool-task      index = ThreadPool worker id; count = tasks that worker
//                  has finished in the current batch (fires between two
//                  tasks — a stall leaves the shared queue to its siblings,
//                  a throw cancels the batch and surfaces from Wait)

#ifndef FAIRCHAIN_SUPPORT_FAULT_INJECTION_HPP_
#define FAIRCHAIN_SUPPORT_FAULT_INJECTION_HPP_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace fairchain {

/// A parsed FAIRCHAIN_FAULT trigger.
struct FaultSpec {
  std::string site;
  std::uint64_t index = 0;
  std::uint64_t nth = 0;
  enum class Action { kKill, kExit, kStall, kThrow } action = Action::kKill;
  std::uint64_t argument = 0;  ///< exit code or stall milliseconds

  /// True when this trigger selects (site, index) at count `count`.
  bool Matches(std::string_view at_site, std::uint64_t at_index,
               std::uint64_t count) const;
};

/// Parses a trigger description ("shard-chunk:1:2:kill").  Throws
/// std::invalid_argument on a malformed site, index, count, or action.
FaultSpec ParseFaultSpec(const std::string& text);

/// The process's active trigger: ParseFaultSpec(FAIRCHAIN_FAULT), re-read
/// on every call; std::nullopt when the variable is unset or empty.  A
/// malformed value throws — a typo in a fault experiment must not silently
/// run fault-free.
std::optional<FaultSpec> ActiveFault();

/// Fires the active trigger if it selects (site, index, count); otherwise
/// does nothing.  `count` is 1-based ("this point has now been passed
/// `count` times").
void MaybeInjectFault(std::string_view site, std::uint64_t index,
                      std::uint64_t count);

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_FAULT_INJECTION_HPP_
