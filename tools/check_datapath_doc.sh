#!/bin/bash
# Doc-drift guard for the datagram-path section (DESIGN.md §13).
# The batched-I/O story hangs on a small surface — the two batch entry
# points, the in-syscall receive wait and the slot size. If one of those
# symbols is renamed or removed the section must follow; if the section
# loses one, the contract is rotting. Two directions (dg_symbol_sync), plus
# the companion artifacts: the tests that pin the contract.
source "$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)/lib/doc_guard.sh"
dg_init check_datapath_doc

dg_require_section '^## 13\. Datagram path'

# symbol -> file that must define it. Keep in lock-step with DESIGN.md §13.
dg_symbol_sync "§13" \
  "recv_many:$src/net/socket.hpp" \
  "send_many:$src/net/socket.hpp" \
  "set_recv_timeout:$src/net/socket.hpp" \
  "kRecvSlotBytes:$src/net/socket.hpp"

# The fault table must carry the EINTR injection the retry contract is
# tested through (§7).
dg_require_backticked "§7" net.udp.eintr

dg_require_artifacts "§13" \
  "$repo_root/tests/net/test_socket.cpp" \
  "$repo_root/tests/chaos/test_chaos_batching.cpp" \
  "$repo_root/tests/perf/test_hotpath_allocs.cpp"

dg_finish
