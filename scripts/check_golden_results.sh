#!/usr/bin/env sh
# Golden-results gate: the committed 24-frame CSVs must regenerate byte
# for byte.
#
# Runs every deterministic bench driver (one per bench/<name>.cpp) at
# MLTC_FRAMES=24 into a temporary MLTC_OUT_DIR, then cmp's each CSV in
# results/final_csv/ against the fresh one. Skipped: perf_microbench
# and ext_parallel_scaling, which only measure timing. A fresh CSV with
# no committed copy is listed but not compared. Serial end to end: a
# bench already spreads its legs over MLTC_JOBS workers (default: all
# cores). Takes several minutes on 4 cores.
#
# Usage: scripts/check_golden_results.sh [build-dir]
set -eu
cd "$(dirname "$0")/.."
BUILD=${1:-build}
GOLDEN=results/final_csv
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
fail=0

for src in bench/*.cpp; do
    name=$(basename "$src" .cpp)
    case $name in
        perf_microbench|ext_parallel_scaling) continue ;;
    esac
    bin="$BUILD/bench/$name"
    if [ ! -x "$bin" ]; then
        echo "FAIL: $bin not built"; fail=1; continue
    fi
    echo "== $name =="
    if ! MLTC_FRAMES=24 MLTC_OUT_DIR="$WORK" "$bin" \
            > "$WORK/$name.stdout" 2>&1; then
        echo "FAIL: $name exited non-zero"
        tail -n 20 "$WORK/$name.stdout"
        fail=1
    fi
done

checked=0
for golden in "$GOLDEN"/*.csv; do
    f=$(basename "$golden")
    if [ ! -f "$WORK/$f" ]; then
        echo "FAIL: no bench wrote $f"; fail=1; continue
    fi
    if ! cmp -s "$golden" "$WORK/$f"; then
        echo "FAIL: $f differs from $GOLDEN/$f"
        diff "$golden" "$WORK/$f" | head -10
        fail=1
    fi
    checked=$((checked + 1))
done
for fresh in "$WORK"/*.csv; do
    [ -f "$fresh" ] || continue
    f=$(basename "$fresh")
    [ -f "$GOLDEN/$f" ] || echo "note: $f has no committed copy (not gated)"
done

if [ "$fail" -ne 0 ]; then
    echo "golden results: FAIL"
    exit 1
fi
echo "golden results: OK ($checked CSVs byte-identical)"
