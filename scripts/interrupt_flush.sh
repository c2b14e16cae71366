#!/usr/bin/env sh
# Interrupt-flush end-to-end proof: SIGINT a parallel cache_explorer
# sweep mid-run and require a graceful landing — the process must exit
# with the cancelled-sweep status (2, not a signal death), the sweep
# must stop at its next frame boundary, and the partial trace and
# metrics must still be schema-valid (the async-signal-safe
# handler only sets a flag; all flushing happens on the normal exit
# path, docs/parallelism.md).
#
# Usage: scripts/interrupt_flush.sh [cache_explorer] [trace_validate] [report]
# Registered as the ctest case `interrupt_flush_script`.
set -eu

EXPLORER="${1:-$(dirname "$0")/../build/examples/cache_explorer}"
VALIDATE="${2:-$(dirname "$0")/../build/examples/trace_validate}"
REPORT="${3:-$(dirname "$0")/../build/examples/report}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/mltc_interrupt.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT INT TERM

# Enough frames that the sweep is still mid-flight when the signal
# lands, on fast and slow machines alike.
"$EXPLORER" --sweep l2 --workload village --frames 200 --jobs 4 \
    --trace-out "$WORK/t.json" --metrics-out "$WORK/m.jsonl" \
    --profile-out "$WORK/prof" --profile-hz 97 \
    --mrc-out "$WORK/mrc" --mrc-interval 2 \
    > "$WORK/stdout.txt" 2> "$WORK/stderr.txt" &
pid=$!

# Interrupt only once the sweep is demonstrably mid-flight: the runner
# appends a metrics row to m.jsonl as each frame completes, so a
# non-empty file proves at least one frame has run. A fixed sleep here
# flaked both ways — too short on loaded CI (nothing started yet),
# needlessly slow on fast machines.
i=0
while [ "$i" -lt 300 ]; do
    [ -s "$WORK/m.jsonl" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "FAIL: sweep exited before it could be interrupted" >&2
        cat "$WORK/stderr.txt" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
# Let a few more frames land so the interrupt arrives mid-sweep rather
# than on the very first frame boundary.
sleep 0.5
kill -INT "$pid"

status=0
wait "$pid" || status=$?
if [ "$status" -ne 2 ]; then
    echo "FAIL: interrupted sweep exited $status (want 2 = cancelled)" >&2
    cat "$WORK/stderr.txt" >&2
    exit 1
fi
echo "   interrupted sweep exited 2 (cancelled), as expected"

if ! grep -q "cancelled after" "$WORK/stdout.txt"; then
    echo "FAIL: the sweep never reported cancellation:" >&2
    cat "$WORK/stdout.txt" >&2
    exit 1
fi
echo "   sweep reported cooperative cancellation"

# The flushed artifacts must be whole: a schema-valid Chrome trace, a
# well-formed metrics stream, and a renderable partial MRC.
"$VALIDATE" "$WORK/t.json"
"$REPORT" --metrics "$WORK/m.jsonl" > /dev/null
"$REPORT" --mrc "$WORK/mrc.csv" > /dev/null
echo "   partial trace, metrics and MRC are schema-valid"

# The profiler buffers must land too: the cooperative-exit path writes
# the profile-so-far, and its folded file diffs cleanly against itself.
for f in "$WORK/prof.folded" "$WORK/prof.json"; do
    if [ ! -s "$f" ]; then
        echo "FAIL: interrupted run never flushed $f" >&2
        exit 1
    fi
done
"$REPORT" profile "$WORK/prof.folded" "$WORK/prof.folded" \
    --threshold 0.0 > /dev/null
echo "   partial stage profile flushed and self-consistent"

echo "interrupt_flush: PASS"
