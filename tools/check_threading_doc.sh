#!/bin/bash
# Doc-drift guard for the execution-model section (DESIGN.md §9.1).
# The server's one model — N workers, one per CPU in the affinity mask,
# receiving from the shared listen socket, deciding each batch in place
# under the shard mutexes, answering it with one sendmmsg — hangs on a
# small surface: the function that derives N, the worker loop, the batch
# view and sampler, the prehashed table accessors the decision takes its
# one lock through, the socket probes the watchdog reads, and the
# receive-side shutdown that stop() wakes the workers with. If one of
# those symbols is renamed or removed the section must follow, and if the
# section loses one the model's description is rotting. Two directions
# (dg_symbol_sync), plus the companion artifacts: the measured comparison
# the section cites and the tests that pin the model.
source "$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)/lib/doc_guard.sh"
dg_init check_threading_doc

dg_require_section '^### 9\.1 Execution model'

# symbol -> file that must define it. Keep in lock-step with DESIGN.md §9.1.
dg_symbol_sync "§9.1" \
  "affinity_cpus:$src/net/affinity.hpp" \
  "worker_count:$src/server/qos_server_node.hpp" \
  "worker_loop:$src/server/qos_server_node.hpp" \
  "run_jobs:$src/server/qos_server_node.hpp" \
  "JobView:$src/server/qos_server_node.hpp" \
  "BatchSampler:$src/server/qos_server_node.hpp" \
  "validate_config:$src/server/qos_server_node.hpp" \
  "watchdog_pass:$src/server/qos_server_node.hpp" \
  "with_entry_prehashed:$src/core/qos_table.hpp" \
  "with_entry_or_create_prehashed:$src/core/qos_table.hpp" \
  "shard_index_of:$src/core/qos_table.hpp" \
  "pending_bytes:$src/net/socket.hpp" \
  "receive_drops:$src/net/socket.hpp" \
  "shutdown_read:$src/net/socket.hpp"

# The metric table must carry the socket-queue signals (§6) and the lock-rank
# table the shard mutex (§8) — both are part of the model's contract.
dg_require_backticked "§8/§6" \
  core.qos_shard server.socket_dropped server.recv_batch server.send_batch

dg_require_artifacts "§9.1" \
  "$repo_root/EXPERIMENTS.md" \
  "$repo_root/tests/server/test_server_shutdown.cpp" \
  "$repo_root/tests/perf/test_hotpath_allocs.cpp"

dg_finish
