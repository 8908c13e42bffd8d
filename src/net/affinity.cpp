#include "net/affinity.hpp"

#include <sched.h>

#include <algorithm>

namespace janus::net {

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

}  // namespace janus::net
