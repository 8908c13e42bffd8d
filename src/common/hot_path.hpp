// Hot-path purity annotations (DESIGN.md §12).
//
// A function marked with one of these macros is a *root* for the static
// purity analyzer (`tools/janus_purity_lint.py`): everything statically
// reachable from it must obey the flavor's ruleset or carry an explicit
// `// purity-ok: <reason>` waiver on the offending line (or the line
// directly above it).
//
// Three flavors, from strictest to most permissive:
//
//   JANUS_HOT_PATH        — the pure kernels the decision path calls: key
//                           hashing and shard choice, the wire codec, the
//                           hot-key sketch, the flight recorder, the
//                           gateway's pick. No allocation, no
//                           janus::Mutex/SharedMutex acquisition, no
//                           blocking syscall, no throw: the body must be
//                           branch-and-arithmetic only.
//
//   JANUS_HOT_PATH_LOCKS  — the decision path itself. Leaf mutexes
//                           (the per-shard `core.qos_shard` lock, the
//                           `common.metrics_stripe` histogram stripe) are
//                           allowed; allocation, blocking syscalls and
//                           throw are still banned.
//
//   JANUS_HOT_PATH_IO     — the worker event loops. Locks plus blocking
//                           socket syscalls (recvmmsg, poll) are allowed;
//                           allocation and throw are still banned.
//
// The macros expand to `[[clang::annotate("janus::hot_path[_locks|_io]")]]`
// under Clang so the libclang engine of the analyzer can find the roots in
// the AST, and to nothing under GCC (which would warn on the unknown
// attribute under -Wall -Wextra) — the same split src/common/sync.hpp uses
// for the thread-safety capability macros. The analyzer's textual engine
// matches the macro names themselves, so annotations are effective under
// both compilers.
#pragma once

#if defined(__clang__)
#define JANUS_HOT_PATH [[clang::annotate("janus::hot_path")]]
#define JANUS_HOT_PATH_LOCKS [[clang::annotate("janus::hot_path_locks")]]
#define JANUS_HOT_PATH_IO [[clang::annotate("janus::hot_path_io")]]
#else
#define JANUS_HOT_PATH
#define JANUS_HOT_PATH_LOCKS
#define JANUS_HOT_PATH_IO
#endif
