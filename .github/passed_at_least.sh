#!/bin/sh
# usage: passed_at_least.sh N cargo test ...
# Runs the command and fails unless it succeeds and its `test result:`
# summaries add up to at least N passed tests: `cargo test -- <filter>` exits
# 0 when the filter matches nothing, so a renamed test would drop out of a
# by-name step unnoticed.
want=$1
shift
out=$("$@" 2>&1)
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || exit "$status"
got=$(printf '%s\n' "$out" | awk '/^test result: ok\./ { n += $4 } END { print n + 0 }')
if [ "$got" -lt "$want" ]; then
    echo "expected at least $want passed tests, the summaries report $got" >&2
    exit 1
fi
