#!/bin/bash
# Doc-drift guard for the data-path provider section (DESIGN.md §13).
# The batched-I/O story hangs on a small surface — the provider enum and
# its resolution, the two batch entry points, the in-syscall receive wait,
# and the process-wide fallback toggle the tests force. If one of those
# symbols is renamed or removed the section must follow; if the section
# loses one, the provider contract is rotting. Two directions
# (dg_symbol_sync), plus the companion artifacts: the tests that run every
# provider.
source "$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)/lib/doc_guard.sh"
dg_init check_datapath_doc

dg_require_section '^## 13\. Data-path providers'

# symbol -> file that must define it. Keep in lock-step with DESIGN.md §13.
dg_symbol_sync "§13" \
  "DataPath:$src/net/socket.hpp" \
  "set_data_path:$src/net/socket.hpp" \
  "resolved_data_path:$src/net/socket.hpp" \
  "data_path_from_name:$src/net/socket.hpp" \
  "recv_many:$src/net/socket.hpp" \
  "send_many:$src/net/socket.hpp" \
  "set_recv_timeout:$src/net/socket.hpp" \
  "set_batch_syscalls_enabled:$src/net/socket.hpp" \
  "kRecvSlotBytes:$src/net/socket.hpp"

# The metric table must carry the provider gauge (§6) and the fault table
# the EINTR injection every provider's retry contract is tested through (§7).
dg_require_backticked "§6/§7" \
  server.data_path net.udp.eintr

dg_require_artifacts "§13" \
  "$repo_root/tests/net/test_socket.cpp" \
  "$repo_root/tests/chaos/test_chaos_batching.cpp" \
  "$repo_root/tests/perf/test_hotpath_allocs.cpp"

dg_finish
