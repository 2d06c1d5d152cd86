// Runs a check in a forked child whose address space may grow by at most a
// fixed headroom past its size at the fork (RLIMIT_AS), so an over-sized
// allocation fails loudly with std::bad_alloc on every host — whatever its
// memory-overcommit policy — instead of succeeding on hosts that overcommit
// and failing only on those that do not.
//
// Sanitizer builds reserve terabytes of shadow address space, which no such
// limit can accommodate; there the check still runs in the child, unlimited.
#pragma once

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <new>
#include <string>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCORE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SCORE_TEST_SANITIZED 1
#endif
#endif

namespace score::testing {

enum class LimitedOutcome { kPassed, kFailed, kOutOfMemory, kThrew, kCrashed };

inline const char* to_string(LimitedOutcome o) {
  switch (o) {
    case LimitedOutcome::kPassed: return "passed";
    case LimitedOutcome::kFailed: return "check returned false";
    case LimitedOutcome::kOutOfMemory: return "std::bad_alloc under the limit";
    case LimitedOutcome::kThrew: return "unexpected exception";
    case LimitedOutcome::kCrashed: return "child crashed";
  }
  return "?";
}

/// Current virtual size of this process in bytes (VmSize), 0 if unknown.
inline std::size_t address_space_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      std::size_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

/// Fork, cap the child's address space at its current size + `headroom`,
/// and run `check` (returns bool) there.
template <typename Check>
LimitedOutcome run_with_address_space_headroom(std::size_t headroom,
                                               Check check) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return LimitedOutcome::kCrashed;
  if (pid == 0) {
#ifndef SCORE_TEST_SANITIZED
    const std::size_t now = address_space_bytes();
    if (now != 0) {
      rlimit lim{};
      lim.rlim_cur = now + headroom;
      lim.rlim_max = now + headroom;
      ::setrlimit(RLIMIT_AS, &lim);
    }
#endif
    int code = 0;
    try {
      code = check() ? 0 : 1;
    } catch (const std::bad_alloc&) {
      code = 2;
    } catch (...) {
      code = 3;
    }
    ::_exit(code);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
    return LimitedOutcome::kCrashed;
  }
  switch (WEXITSTATUS(status)) {
    case 0: return LimitedOutcome::kPassed;
    case 1: return LimitedOutcome::kFailed;
    case 2: return LimitedOutcome::kOutOfMemory;
    default: return LimitedOutcome::kThrew;
  }
}

}  // namespace score::testing
