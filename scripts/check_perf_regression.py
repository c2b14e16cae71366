#!/usr/bin/env python3
"""Perf-regression gate: compare a fresh perf_microbench run against the
committed BENCH_perf.json baseline.

Raw ns/op is machine-dependent, so per-benchmark ratios
(candidate / baseline) are first normalized by the median ratio across
all shared benchmarks — the median absorbs the overall speed difference
between the baseline machine and the current one, leaving only relative
movement per benchmark. Any benchmark whose normalized ratio exceeds
1 + threshold fails the gate.

Wall-clock rows from ext_parallel_scaling (BM_ParallelSweep/jobs:N)
are excluded: they measure thread-scaling on whatever core count the
machine happens to have, not single-thread code quality. The
single-thread hot-path benchmarks (BM_CacheSimAccess*,
BM_MultiStreamInterference, BM_ReuseTrackerRecord) are mandatory —
a candidate that lacks them is unusable, not merely incomplete, since
they are the benchmarks this gate exists to protect.

Two machine-independent gates run inside the candidate file alone:

* BM_CacheSimAccessTelemetry (hot path with a live registry and a
  10 Hz exposition scraper) must stay within --telemetry-threshold
  (default 5%) of BM_CacheSimAccess measured in the same run — the
  telemetry plane is contractually almost-free on the hot path.
* BM_CacheSimAccessProfiled (hot path with the continuous profiler
  installed and sampling at 997 Hz, i.e. the *enabled* mode) must stay
  within --profile-threshold (default 60%) of BM_CacheSimAccess. The
  disabled-mode hook cost is covered by the plain BM_CacheSimAccess row
  under the normalized baseline gate above.
* BM_CacheSimAccessBatch (256-ref spans, ns per texel) must be at
  least --batch-speedup (default 2.0) times faster than
  BM_CacheSimAccessScan — the per-call row driving the same serpentine
  all-hit pattern through the sink interface, one access() call (a
  one-ref span) per texel — in the same run: the speedup span delivery
  exists to deliver (docs/batched_access.md).
* BM_CacheSimAccessBatchProduce (batched path paying for its own span
  construction) must beat BM_CacheSimAccessScan by --batch-produce-
  speedup (default 1.5): batching wins end to end, not just at the
  consumer.
* BM_CacheSimAccessBatchClassified (256-ref spans through the staged
  loop with the 3C shadow models observing every post-coalescing
  reference) must be no slower than --batch-classified-speedup
  (default 0.95) times BM_CacheSimAccessScanClassified (the same
  observed loop fed one-ref spans) — batching must never cost
  observed runs anything.

With --json-out PATH a machine-readable verdict (per-benchmark ratios,
in-run overheads, pass/fail) is written alongside the human table — the
file CI folds into the step summary.

Usage: check_perf_regression.py BASELINE.json CANDIDATE.json [--threshold 0.15]
Exit status: 0 = within budget, 1 = regression, 2 = unusable input.
"""

import argparse
import json
import sys

# Machine-dependent rows the gate must never score.
IGNORED_PREFIXES = ("BM_ParallelSweep",)

# Rows the candidate must contain for the gate to mean anything.
REQUIRED_PREFIXES = ("BM_CacheSimAccess", "BM_MultiStreamInterference",
                     "BM_ReuseTrackerRecord")


def load_ns_per_op(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for row in doc.get("benchmarks", []):
        name = row.get("name")
        ns = row.get("ns_per_op")
        if isinstance(name, str) and isinstance(ns, (int, float)) and ns > 0:
            if name.startswith(IGNORED_PREFIXES):
                continue
            rows[name] = float(ns)
    if not rows:
        print(f"error: no usable benchmark rows in {path}", file=sys.stderr)
        sys.exit(2)
    return rows


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def write_json_out(path, verdict):
    if not path:
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(verdict, f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as e:
        print(f"error: cannot write {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed normalized slowdown (default 0.15 = 15%%)")
    ap.add_argument("--telemetry-threshold", type=float, default=0.05,
                    help="allowed hot-path overhead of the live telemetry "
                         "plane, measured within the candidate run "
                         "(default 0.05 = 5%%)")
    ap.add_argument("--profile-threshold", type=float, default=0.60,
                    help="allowed hot-path overhead of the continuous "
                         "profiler in its *enabled* (sampling) mode, "
                         "measured within the candidate run; ~30-45%% "
                         "observed (default 0.60 = 60%%)")
    ap.add_argument("--batch-speedup", type=float, default=2.0,
                    help="required in-run speedup of BM_CacheSimAccessBatch "
                         "over BM_CacheSimAccessScan (default 2.0 = 2x)")
    ap.add_argument("--batch-produce-speedup", type=float, default=1.5,
                    help="required in-run speedup of "
                         "BM_CacheSimAccessBatchProduce (span construction "
                         "included) over BM_CacheSimAccessScan "
                         "(default 1.5)")
    ap.add_argument("--batch-classified-speedup", type=float, default=0.95,
                    help="required in-run speedup of "
                         "BM_CacheSimAccessBatchClassified over "
                         "BM_CacheSimAccessScanClassified (default 0.95: "
                         "batching must not slow observed runs)")
    ap.add_argument("--json-out", default="",
                    help="write a machine-readable verdict JSON here")
    args = ap.parse_args()

    base = load_ns_per_op(args.baseline)
    cand = load_ns_per_op(args.candidate)
    required = sorted(n for n in base if n.startswith(REQUIRED_PREFIXES))
    lost = [n for n in required if n not in cand]
    if lost:
        print(f"error: candidate is missing required benchmark(s): "
              f"{', '.join(lost)}", file=sys.stderr)
        sys.exit(2)
    shared = sorted(set(base) & set(cand))
    if not shared:
        print("error: baseline and candidate share no benchmarks",
              file=sys.stderr)
        sys.exit(2)
    missing = sorted(set(base) - set(cand))
    if missing:
        print(f"warning: candidate is missing {', '.join(missing)}",
              file=sys.stderr)

    ratios = {name: cand[name] / base[name] for name in shared}
    scale = median(ratios.values())
    print(f"machine-speed scale (median ratio): {scale:.3f}")
    print(f"{'benchmark':<32} {'base ns':>10} {'cand ns':>10} "
          f"{'normalized':>10}")
    failures = []
    bench_rows = []
    for name in shared:
        norm = ratios[name] / scale
        passed = norm <= 1.0 + args.threshold
        if not passed:
            failures.append((name, norm))
        flag = "" if passed else "  REGRESSION"
        print(f"{name:<32} {base[name]:>10.2f} {cand[name]:>10.2f} "
              f"{norm:>9.3f}x{flag}")
        bench_rows.append({
            "name": name,
            "baseline_ns_per_op": base[name],
            "candidate_ns_per_op": cand[name],
            "ratio": ratios[name],
            "normalized_ratio": norm,
            "pass": passed,
        })

    verdict = {
        "threshold": args.threshold,
        "scale": scale,
        "benchmarks": bench_rows,
        "missing": missing,
        "overheads": {},
    }

    # In-run overhead gates: same machine, same run, no normalization
    # needed. Only meaningful once the candidate carries both rows.
    overhead_failures = []
    plain = cand.get("BM_CacheSimAccess")
    for label, row, budget in (
        ("telemetry", "BM_CacheSimAccessTelemetry",
         args.telemetry_threshold),
        ("profile", "BM_CacheSimAccessProfiled", args.profile_threshold),
    ):
        live = cand.get(row)
        if plain and live:
            overhead = live / plain - 1.0
            passed = overhead <= budget
            print(f"{label}-plane hot-path overhead: {overhead:+.1%} "
                  f"(budget {budget:.0%})")
            verdict["overheads"][label] = {
                "benchmark": row,
                "overhead": overhead,
                "budget": budget,
                "pass": passed,
            }
            if not passed:
                overhead_failures.append((label, row, overhead))
                print(f"FAIL: {label} plane costs {overhead:.1%} on the "
                      f"hot path ({row} vs BM_CacheSimAccess)",
                      file=sys.stderr)
        elif live is None and plain:
            print(f"warning: candidate lacks {row}; {label}-overhead "
                  f"gate skipped", file=sys.stderr)

    # Batch-speedup gates: the batched path's contract is a minimum
    # speedup over its scalar twin measured in the same run. Expressed
    # as speedup = scalar_ns / batch_ns, required >= the floor.
    verdict["speedups"] = {}
    for label, scalar_row, batch_row, floor in (
        ("batch", "BM_CacheSimAccessScan", "BM_CacheSimAccessBatch",
         args.batch_speedup),
        ("batch_produce", "BM_CacheSimAccessScan",
         "BM_CacheSimAccessBatchProduce", args.batch_produce_speedup),
        ("batch_classified", "BM_CacheSimAccessScanClassified",
         "BM_CacheSimAccessBatchClassified",
         args.batch_classified_speedup),
    ):
        scalar_ns = cand.get(scalar_row)
        batch_ns = cand.get(batch_row)
        if scalar_ns and batch_ns:
            speedup = scalar_ns / batch_ns
            passed = speedup >= floor
            print(f"{label} speedup: {speedup:.2f}x "
                  f"({batch_row} vs {scalar_row}, floor {floor:.2f}x)")
            verdict["speedups"][label] = {
                "scalar": scalar_row,
                "batch": batch_row,
                "speedup": speedup,
                "floor": floor,
                "pass": passed,
            }
            if not passed:
                overhead_failures.append((label, batch_row, speedup))
                print(f"FAIL: {batch_row} is only {speedup:.2f}x "
                      f"{scalar_row} (floor {floor:.2f}x)",
                      file=sys.stderr)
        elif batch_ns is None and scalar_ns:
            print(f"warning: candidate lacks {batch_row}; {label} "
                  f"speedup gate skipped", file=sys.stderr)

    verdict["pass"] = not failures and not overhead_failures
    write_json_out(args.json_out, verdict)

    if overhead_failures:
        sys.exit(1)
    if failures:
        worst = max(failures, key=lambda f: f[1])
        print(f"FAIL: {len(failures)} benchmark(s) regressed beyond "
              f"{args.threshold:.0%} (worst: {worst[0]} at {worst[1]:.3f}x)",
              file=sys.stderr)
        sys.exit(1)
    print(f"OK: all {len(shared)} shared benchmarks within "
          f"{args.threshold:.0%} of the baseline")


if __name__ == "__main__":
    main()
