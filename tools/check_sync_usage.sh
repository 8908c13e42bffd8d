#!/bin/bash
# Guard: production code must go through the annotated lock layer
# (src/common/sync.hpp). Raw standard-library primitives and manual
# lock()/unlock() calls outside that layer bypass both the Clang
# thread-safety analysis and the debug lock-rank detector, so this script
# fails the test run when it finds any.
#
# A line may be waived with an inline `// sync-ok: <reason>` comment — used
# for false positives such as std::weak_ptr::lock() (not a mutex).
#
# Usage: tools/check_sync_usage.sh [repo-root]
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

# Everything under src/ except the lock layer itself.
files=$(find src -name '*.hpp' -o -name '*.cpp' | grep -v '^src/common/sync\.' | sort)
if [ -z "$files" ]; then
    echo "check_sync_usage: no sources found under $root/src" >&2
    exit 2
fi

# Banned token classes. Word boundaries keep janus::Mutex, SharedMutex, and
# comments that merely mention "mutex" out of scope.
raw_primitives='std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|shared_lock|scoped_lock)\b'
manual_calls='\.(lock|unlock|try_lock|lock_shared|unlock_shared|try_lock_shared)\(\)'

status=0

scan() {
    local pattern="$1" label="$2" hits
    # grep exits 1 on "no match" (good) and >1 on real errors; tell them apart
    # so a bad pattern or unreadable file cannot pass silently.
    set +e
    hits=$(grep -nE "$pattern" $files 2>&1)
    rc=$?
    set -e
    if [ "$rc" -gt 1 ]; then
        echo "check_sync_usage: grep failed for $label:" >&2
        echo "$hits" >&2
        exit 2
    fi
    if [ "$rc" -eq 0 ]; then
        hits=$(echo "$hits" | grep -v 'sync-ok:' || true)
        if [ -n "$hits" ]; then
            echo "check_sync_usage: $label found outside src/common/sync.*:" >&2
            echo "$hits" >&2
            echo "" >&2
            status=1
        fi
    fi
}

scan "$raw_primitives" "raw standard-library sync primitive"
scan "$manual_calls" "manual lock()/unlock() call (use MutexLock/ReaderLock/WriterLock)"

if [ "$status" -ne 0 ]; then
    echo "check_sync_usage: use janus::Mutex / janus::SharedMutex / janus::CondVar" >&2
    echo "from common/sync.hpp, or waive a false positive with '// sync-ok: <reason>'." >&2
    exit 1
fi

echo "check_sync_usage: OK (no raw sync primitives outside src/common/sync.*)"
