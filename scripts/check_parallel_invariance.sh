#!/usr/bin/env sh
# Acceptance check for the parallel sweep executor: every observable
# output of a parallel run must be byte-identical to the serial run.
#
# Runs cache_explorer (stdout, metrics JSONL, MRC/working-set CSVs,
# heatmap JSON, the sweep's snapshot and its manifest), record_replay
# (stdout and each replay leg's MRC files) and three representative
# bench drivers (stdout + CSVs) at --jobs 1 and --jobs 8 and
# byte-compares everything. The only permitted differences are the
# worker count echoed in the banner and absolute paths, which are
# normalized before the diff. See docs/parallelism.md.
#
# Usage: scripts/check_parallel_invariance.sh [build-dir]
set -eu
cd "$(dirname "$0")/.."
BUILD=${1:-build}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
fail=0

# Strip run-local details a human reader would also ignore: the jobs
# count in the banner and the temp directory in artifact paths.
normalize() { # file jobsdir
    sed -e 's/[0-9][0-9]* jobs/N jobs/' -e "s#$2#OUT#g" "$1"
}

explorer() { # jobs outdir
    mkdir -p "$2"
    "$BUILD/examples/cache_explorer" --sweep l2 --workload village \
        --frames 2 --jobs "$1" \
        --metrics-out "$2/run.jsonl" \
        --mrc-out "$2/mrc" --heatmap-out "$2/heat" --mrc-interval 2 \
        --checkpoint "$2/ckpt.snap" --checkpoint-every 1 \
        > "$2/stdout.txt"
}

echo "== cache_explorer --sweep l2 (jobs 1 vs 8) =="
explorer 1 "$WORK/e1"
explorer 8 "$WORK/e8"
for f in stdout.txt run.jsonl mrc.csv mrc.ws.csv mrc.json heat.json \
         ckpt.snap.manifest; do
    if ! normalize "$WORK/e1/$f" "$WORK/e1" > "$WORK/a" || \
       ! normalize "$WORK/e8/$f" "$WORK/e8" > "$WORK/b"; then
        echo "FAIL: missing artifact $f"; fail=1; continue
    fi
    if ! diff -u "$WORK/a" "$WORK/b" > /dev/null; then
        echo "FAIL: $f differs between jobs=1 and jobs=8"
        diff -u "$WORK/a" "$WORK/b" | head -20
        fail=1
    fi
done
if [ ! -s "$WORK/e1/ckpt.snap" ]; then
    echo "FAIL: sweep left no checkpoint"; fail=1
elif ! cmp -s "$WORK/e1/ckpt.snap" "$WORK/e8/ckpt.snap"; then
    echo "FAIL: sweep checkpoint differs between jobs=1 and jobs=8"; fail=1
fi

multistream() { # jobs outdir
    mkdir -p "$2"
    "$BUILD/examples/cache_explorer" --streams 4 --rounds 3 \
        --l2-policy utility --stream-workloads village,city,thrasher,city \
        --jobs "$1" --metrics-out "$2/run.jsonl" \
        --checkpoint "$2/ms.snap" --checkpoint-every 2 \
        --csv-prefix "$2/ms" > "$2/stdout.txt"
}

echo "== cache_explorer --streams 4 (jobs 1 vs 8) =="
multistream 1 "$WORK/m1"
multistream 8 "$WORK/m8"
if ! cmp -s "$WORK/m1/ms.snap" "$WORK/m8/ms.snap"; then
    echo "FAIL: multi-stream checkpoint differs between jobs=1 and jobs=8"
    fail=1
fi
for f in stdout.txt run.jsonl ms.stream0.csv ms.stream1.csv \
         ms.stream2.csv ms.stream3.csv; do
    if ! normalize "$WORK/m1/$f" "$WORK/m1" > "$WORK/a" || \
       ! normalize "$WORK/m8/$f" "$WORK/m8" > "$WORK/b"; then
        echo "FAIL: missing artifact $f"; fail=1; continue
    fi
    if ! diff -u "$WORK/a" "$WORK/b" > /dev/null; then
        echo "FAIL: multi-stream $f differs between jobs=1 and jobs=8"
        fail=1
    fi
done

replay() { # jobs outdir
    mkdir -p "$2"
    "$BUILD/examples/record_replay" --workload village --frames 2 \
        --jobs "$1" --trace "$2/clip.bin" --mrc-out "$2/mrc" \
        > "$2/stdout.txt"
}

echo "== record_replay --mrc-out (jobs 1 vs 8) =="
replay 1 "$WORK/r1"
replay 8 "$WORK/r8"
for f in stdout.txt \
         mrc.pull2.csv mrc.pull2.ws.csv mrc.pull2.json \
         mrc.pull16.csv mrc.pull16.ws.csv mrc.pull16.json \
         mrc.l2_1mb.csv mrc.l2_1mb.ws.csv mrc.l2_1mb.json \
         mrc.l2_4mb.csv mrc.l2_4mb.ws.csv mrc.l2_4mb.json; do
    if ! normalize "$WORK/r1/$f" "$WORK/r1" > "$WORK/a" || \
       ! normalize "$WORK/r8/$f" "$WORK/r8" > "$WORK/b"; then
        echo "FAIL: missing artifact $f"; fail=1; continue
    fi
    if ! diff -u "$WORK/a" "$WORK/b" > /dev/null; then
        echo "FAIL: record_replay $f differs between jobs=1 and jobs=8"
        diff -u "$WORK/a" "$WORK/b" | head -20
        fail=1
    fi
done

for bench in tab03_avg_bandwidth tab05_06_l2_hitrates fig09_tab02_l1; do
    echo "== $bench (MLTC_JOBS 1 vs 8) =="
    mkdir -p "$WORK/b1" "$WORK/b8"
    MLTC_FRAMES=2 MLTC_OUT_DIR="$WORK/b1" MLTC_JOBS=1 \
        "$BUILD/bench/$bench" > "$WORK/b1/$bench.txt"
    MLTC_FRAMES=2 MLTC_OUT_DIR="$WORK/b8" MLTC_JOBS=8 \
        "$BUILD/bench/$bench" > "$WORK/b8/$bench.txt"
    normalize "$WORK/b1/$bench.txt" "$WORK/b1" > "$WORK/a"
    normalize "$WORK/b8/$bench.txt" "$WORK/b8" > "$WORK/b"
    if ! diff -u "$WORK/a" "$WORK/b" > /dev/null; then
        echo "FAIL: $bench stdout differs"; fail=1
    fi
    for csv in "$WORK"/b1/*.csv; do
        if ! cmp -s "$csv" "$WORK/b8/$(basename "$csv")"; then
            echo "FAIL: $(basename "$csv") differs"; fail=1
        fi
    done
    rm -rf "$WORK/b1" "$WORK/b8"
done

if [ "$fail" -ne 0 ]; then
    echo "FAIL: parallel run is not byte-identical to serial"
    exit 1
fi
echo "OK: jobs=8 outputs byte-identical to jobs=1"
