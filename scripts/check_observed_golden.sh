#!/usr/bin/env sh
# Observed-path golden: a cache_explorer sweep with the 3C classifier
# and the reuse-distance profiler attached (the simulators' observed
# access path) must reproduce the committed outputs byte for byte:
# stdout (normalized as check_parallel_invariance.sh normalizes it),
# mrc.csv, mrc.ws.csv, mrc.json and heat.json.
#
# The golden files live in tests/golden/observed_sweep/. A change that
# is meant to move these numbers regenerates them by running the sweep
# below and copying the five files there.
#
# Usage: scripts/check_observed_golden.sh [build-dir]
# Registered as the ctest case `observed_golden_script`.
set -eu
cd "$(dirname "$0")/.."
BUILD=${1:-build}
GOLDEN=tests/golden/observed_sweep
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$BUILD/examples/cache_explorer" --sweep l2 --workload village \
    --frames 2 --jobs 2 --miss-classes \
    --mrc-out "$WORK/mrc" --heatmap-out "$WORK/heat" --mrc-interval 2 \
    > "$WORK/stdout.raw"
sed -e 's/[0-9][0-9]* jobs/N jobs/' -e "s#$WORK#OUT#g" \
    "$WORK/stdout.raw" > "$WORK/stdout.txt"

fail=0
for f in stdout.txt mrc.csv mrc.ws.csv mrc.json heat.json; do
    if ! cmp -s "$WORK/$f" "$GOLDEN/$f"; then
        echo "FAIL: $f differs from $GOLDEN/$f"
        diff "$WORK/$f" "$GOLDEN/$f" | head -10
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "FAIL: observed sweep is not byte-identical to its golden"
    exit 1
fi
echo "OK: observed sweep byte-identical to $GOLDEN"
