// How many threads a node's tier runs: one per CPU the node may run on.
// The QoS server sizes its worker pool with it (DESIGN.md §9.1) and the
// HTTP server its loops (§9.2), so an operator chooses every tier's thread
// count the same way, by pinning the process (`taskset -c`).
#pragma once

#include <cstddef>

namespace janus::net {

/// Number of CPUs in the calling thread's affinity mask (at least 1). A
/// thread inherits its creator's mask, so for a process pinned with
/// taskset this is the size of the pinned set, whatever the host has.
std::size_t affinity_cpus();

}  // namespace janus::net
