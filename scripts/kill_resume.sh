#!/usr/bin/env sh
# Crash-safety end-to-end proof: run a bench to completion for a
# reference CSV, run it again with periodic checkpoints and a
# deterministic SIGKILL mid-run (--die-after-checkpoint), resume the
# killed run from its checkpoints in a fresh process, and require the
# final CSV to be byte-identical to the reference. Repeats the whole
# exercise over the fault-injectable host backend so the fault RNG
# streams are proven to round-trip through the snapshot too.
#
# Usage: scripts/kill_resume.sh [path-to-tab03_avg_bandwidth]
# (defaults to build/bench/tab03_avg_bandwidth; MLTC_FRAMES overrides
# the frame count). Registered as the ctest case `kill_resume_script`.
set -eu

BENCH="${1:-$(dirname "$0")/../build/bench/tab03_avg_bandwidth}"
FRAMES="${MLTC_FRAMES:-4}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/mltc_kill_resume.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT INT TERM

run_leg() {
    # $1 = leg name, $2... = extra bench flags.
    leg="$1"; shift
    mkdir -p "$WORK/$leg"

    echo "== [$leg] reference run =="
    MLTC_FRAMES="$FRAMES" MLTC_OUT_DIR="$WORK/$leg" \
        "$BENCH" "$@" >/dev/null
    cp "$WORK/$leg/tab03_avg_bandwidth.csv" "$WORK/$leg/reference.csv"

    echo "== [$leg] crash run (SIGKILL after 2nd checkpoint) =="
    status=0
    MLTC_FRAMES="$FRAMES" MLTC_OUT_DIR="$WORK/$leg" \
        "$BENCH" "$@" \
        --checkpoint="$WORK/$leg/ckpt" --checkpoint-every=1 \
        --die-after-checkpoint=2 >/dev/null 2>&1 || status=$?
    # 137 = 128 + SIGKILL; a shell may also report 265 or plain kill text.
    if [ "$status" -eq 0 ]; then
        echo "FAIL: crash run was expected to die but exited 0" >&2
        exit 1
    fi
    echo "   crash run died with status $status (expected: killed)"
    if ! ls "$WORK/$leg"/ckpt.*.snap >/dev/null 2>&1; then
        echo "FAIL: crash run left no checkpoint" >&2
        exit 1
    fi

    echo "== [$leg] resume run =="
    MLTC_FRAMES="$FRAMES" MLTC_OUT_DIR="$WORK/$leg" \
        "$BENCH" "$@" \
        --checkpoint="$WORK/$leg/ckpt" --checkpoint-every=1 \
        --resume >/dev/null

    if cmp -s "$WORK/$leg/reference.csv" \
              "$WORK/$leg/tab03_avg_bandwidth.csv"; then
        echo "   OK: resumed CSV is byte-identical to the reference"
    else
        echo "FAIL: resumed CSV differs from the reference:" >&2
        diff "$WORK/$leg/reference.csv" \
             "$WORK/$leg/tab03_avg_bandwidth.csv" >&2 || true
        exit 1
    fi
}

run_leg fault_free
run_leg faulty --faults --fault-drop=0.1 --fault-corrupt=0.05

echo "kill_resume: PASS"
