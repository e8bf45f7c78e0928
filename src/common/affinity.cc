#include "common/affinity.h"

// The whole TU is gated so release objects contain no affinity symbols at
// all (mirroring how chaos points vanish from release hot paths).
#if DCD_AFFINITY_ENABLED

#include <cstdio>
#include <cstdlib>

namespace dcdatalog {

uint64_t AffinitySelfThreadId() {
  static std::atomic<uint64_t> next_id{0};
  thread_local const uint64_t id =
      next_id.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

void ThreadAffinity::Die(uint64_t owner, uint64_t self, const char* file,
                         int line) const {
  // Raw fprintf, not DCD_LOG: the process is about to abort and the log
  // sink lock may be held by the very thread we are reporting on.
  std::fprintf(stderr,
               "[affinity] %s:%d: thread-affinity violation: role '%s' is "
               "owned by thread %llu but was accessed by thread %llu\n",
               file, line, role_,
               static_cast<unsigned long long>(owner),
               static_cast<unsigned long long>(self));
  std::fflush(stderr);
  std::abort();
}

}  // namespace dcdatalog

#endif  // DCD_AFFINITY_ENABLED
