#!/usr/bin/env sh
# Bad-argument proof for the example drivers: a malformed flag value
# must print a typed "[bad-argument] ..." error and exit with the usage
# status 2, never abort on an uncaught exception (SIGABRT, 134).
#
# Usage: scripts/check_bad_arguments.sh BUILD_DIR
# Registered as the ctest case `bad_arguments_script`.
set -eu

BIN="${1:-$(dirname "$0")/../build}/examples"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/mltc_badargs.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT INT TERM

fail=0
expect_usage() {
    status=0
    "$BIN/$@" > "$WORK/out.txt" 2> "$WORK/err.txt" || status=$?
    if [ "$status" -ne 2 ]; then
        echo "FAIL: $* exited $status, expected 2" >&2
        cat "$WORK/err.txt" >&2
        fail=1
    elif ! grep -q '^\[bad-argument\] ' "$WORK/err.txt"; then
        echo "FAIL: $* printed no typed error:" >&2
        cat "$WORK/err.txt" >&2
        fail=1
    else
        echo "ok: $* -> $(cat "$WORK/err.txt")"
    fi
}

expect_usage cache_explorer --filter bilinar
expect_usage cache_explorer --sweep l1 --frames=5q
expect_usage cache_explorer --sweep l3
expect_usage cache_explorer --sweep l1 --workload villag
expect_usage cache_explorer --streams 2 --filter bilinar
expect_usage cache_explorer --io-faults=eio=2.0
expect_usage quickstart --workload villag
expect_usage quickstart --frames=-x
expect_usage village_walkthrough --frames=5q
expect_usage village_walkthrough --filter bilinar
expect_usage city_flythrough --l2-mb=two
expect_usage record_replay --workload villag
expect_usage record_replay --frames=5q

exit "$fail"
