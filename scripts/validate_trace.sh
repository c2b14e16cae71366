#!/usr/bin/env sh
# End-to-end observability proof: run a short cache_explorer sweep with
# every observability output enabled, then require
#
#  - the Chrome trace to pass the full trace_validate schema check
#    (balanced B/E pairs, per-thread monotonic timestamps, typed
#    counter/instant events);
#  - the metrics JSONL to contain one parseable frame row per frame,
#    each carrying every swept configuration's L1/L2/TLB counters
#    (labelled sim=...) and the 3C miss-class breakdown;
#  - report --metrics to summarise that stream successfully;
#  - report compare to exit 0 on a run against itself, 3 against a
#    shorter run under --threshold 0, and 1 on a missing file;
#  - a --streams run with trace, profile and flight outputs to leave a
#    trace that passes trace_validate and a non-empty folded profile.
#
# Usage: scripts/validate_trace.sh <cache_explorer> <trace_validate> <report>
# Registered as the ctest case `trace_schema_script`.
set -eu

EXPLORER="$1"
VALIDATE="$2"
REPORT="$3"
FRAMES="${MLTC_FRAMES:-4}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/mltc_trace.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT INT TERM

# The l2 sweep runs 5 configurations (1..16 MB); --jobs 2 exercises the
# parallel path — the simulators consume on pool workers, so the trace
# writer must stay schema-valid with worker tids.
SIMS=5
echo "== sweep with observability enabled =="
"$EXPLORER" --sweep l2 --workload village --frames "$FRAMES" --jobs 2 \
    --trace-out "$WORK/run.json" --metrics-out "$WORK/run.jsonl" \
    --miss-classes >/dev/null

echo "== trace schema =="
"$VALIDATE" "$WORK/run.json"

echo "== metrics JSONL =="
rows="$(grep -c '"frame":' "$WORK/run.jsonl")"
if [ "$rows" -ne "$FRAMES" ]; then
    echo "FAIL: expected $FRAMES frame rows, found $rows"
    exit 1
fi
sims="$(grep -o '"accesses{sim=[^}]*}' "$WORK/run.jsonl" | sort -u | wc -l)"
if [ "$sims" -ne "$SIMS" ]; then
    echo "FAIL: expected rows for $SIMS configurations, found $sims"
    exit 1
fi
for key in '"l1.miss{sim=' '"l2.full_miss{sim=' '"tlb.probe{sim=' \
           '"l1.miss.class{class=compulsory' \
           '"l2.miss.class{class=conflict'; do
    if ! grep -q "$key" "$WORK/run.jsonl"; then
        echo "FAIL: metrics rows missing $key"
        exit 1
    fi
done

echo "== report --metrics =="
"$REPORT" --metrics "$WORK/run.jsonl" >/dev/null

echo "== report compare exit codes =="
expect_exit() {
    want="$1"
    shift
    rc=0
    "$@" >/dev/null || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "FAIL: expected exit $want, got $rc: $*"
        exit 1
    fi
}
"$EXPLORER" --sweep l2 --workload village --frames 2 --jobs 2 \
    --metrics-out "$WORK/short.jsonl" >/dev/null
expect_exit 0 "$REPORT" compare "$WORK/run.jsonl" "$WORK/run.jsonl" \
    --threshold 0
expect_exit 3 "$REPORT" compare "$WORK/run.jsonl" "$WORK/short.jsonl" \
    --threshold 0
expect_exit 1 "$REPORT" compare "$WORK/run.jsonl" "$WORK/missing.jsonl"

echo "== stream-mode trace and profile =="
"$EXPLORER" --streams 4 --jobs 2 --rounds 4 \
    --trace-out "$WORK/streams.json" --profile-out "$WORK/streams_prof" \
    --flight-out "$WORK/streams" >/dev/null
"$VALIDATE" "$WORK/streams.json"
if [ ! -s "$WORK/streams_prof.folded" ]; then
    echo "FAIL: stream-mode folded profile is empty"
    exit 1
fi

echo "OK"
