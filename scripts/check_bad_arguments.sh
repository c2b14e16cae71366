#!/usr/bin/env sh
# Bad-argument proof for the example drivers and the benches, both
# those that take flags and those that take none (they read
# MLTC_FRAMES, not --frames): a malformed flag value or a flag the tool
# does not know must print a typed "[bad-argument] ..." error and exit
# with the usage status 2, never abort on an uncaught exception
# (SIGABRT, 134) or run on with the flag ignored.
#
# Usage: scripts/check_bad_arguments.sh BUILD_DIR
# Registered as the ctest case `bad_arguments_script`.
set -eu

BUILD="${1:-$(dirname "$0")/../build}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/mltc_badargs.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT INT TERM

fail=0
expect_usage() {
    status=0
    "$BUILD/$@" > "$WORK/out.txt" 2> "$WORK/err.txt" || status=$?
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

expect_usage examples/cache_explorer --filter bilinar
expect_usage examples/cache_explorer --sweep l1 --frames=5q
expect_usage examples/cache_explorer --sweep l3
expect_usage examples/cache_explorer --sweep l1 --workload villag
expect_usage examples/cache_explorer --streams 2 --filter bilinar
expect_usage examples/cache_explorer --io-faults=eio=2.0
expect_usage examples/quickstart --workload villag
expect_usage examples/quickstart --frames=-x
expect_usage examples/village_walkthrough --frames=5q
expect_usage examples/village_walkthrough --filter bilinar
expect_usage examples/city_flythrough --l2-mb=two
expect_usage examples/record_replay --workload villag
expect_usage examples/record_replay --frames=5q
expect_usage examples/record_replay --metrics-out "$WORK/m.jsonl"
expect_usage examples/quickstart --workload village --frames 1 --bogus-flag 3
expect_usage examples/cache_explorer --sweep l1 --frame 5
expect_usage examples/cache_explorer --streams 2 --sweep l1
expect_usage bench/tab03_avg_bandwidth --checkpoint-every=x
expect_usage bench/fig09_tab02_l1 --bogus-flag
expect_usage bench/ext_chaos --seed=x
expect_usage bench/ext_multitenant --frames 4
expect_usage bench/abl_l1_assoc --frames 5
expect_usage bench/tab05_06_l2_hitrates --bogus

exit "$fail"
