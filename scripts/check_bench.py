#!/usr/bin/env python3
"""Bench-artifact sanity check: fail when a stage regresses vs. the snapshot.

Compares a freshly measured BENCH_flow.json against the checked-in snapshot
and exits non-zero when any circuit's stage `min_ms` regressed by more than
--max-ratio (default 1.25, i.e. >25% slower) *after normalizing for overall
machine speed*: every per-stage ratio is divided by the median ratio across
all compared stages, so a uniformly slower (or faster) runner — CI hosts
span CPU SKUs differing well beyond 25% — cancels out, while a single stage
regressing relative to the rest of the flow still trips the gate.  `min_ms`
is the comparison metric because it carries the least scheduler noise (see
PERF.md); stages whose snapshot time is below --min-ms are skipped entirely
— sub-millisecond stages on shared CI runners are dominated by jitter, not
by code.  Each compared row also prints its max_ms/min_ms spread in the
snapshot and in the fresh run: a flagged row whose spread is wide was
measured through host noise, and a rerun is the first thing to try.  The
spread is shown, not gated.  A snapshot stage at or above --min-ms that the
fresh run lacks fails the gate (a renamed or dropped row would otherwise go
unchecked); the one exception is the `cec` row when the fresh run was made
without CEC (`"cec": false` at its root).

Usage:
  check_bench.py SNAPSHOT.json FRESH.json [--max-ratio 1.25] [--min-ms 0.5]
"""

import argparse
import json
import statistics
import sys


def spread(sample):
    """max_ms / min_ms of one stage sample (inf when min_ms is 0)."""
    low = sample.get("min_ms", 0.0)
    return sample.get("max_ms", low) / low if low > 0 else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("snapshot", help="checked-in BENCH_flow.json")
    parser.add_argument("fresh", help="freshly measured BENCH_flow.json")
    parser.add_argument("--max-ratio", type=float, default=1.25,
                        help="fail when the machine-speed-normalized "
                             "fresh/snapshot ratio exceeds this")
    parser.add_argument("--min-ms", type=float, default=0.5,
                        help="skip stages with snapshot min_ms below this")
    args = parser.parse_args()

    with open(args.snapshot) as f:
        snapshot = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    rows = []
    missing = []
    skipped = 0
    fresh_has_cec = fresh.get("cec", True)
    for name, circuit in snapshot.get("circuits", {}).items():
        fresh_circuit = fresh.get("circuits", {}).get(name)
        if fresh_circuit is None:
            print(f"note: circuit {name} absent from fresh run; skipping")
            continue
        for stage, sample in circuit.get("stages", {}).items():
            base = sample.get("min_ms", 0.0)
            if base < args.min_ms:
                skipped += 1
                continue
            now_sample = fresh_circuit.get("stages", {}).get(stage)
            if now_sample is None:
                if stage != "cec" or fresh_has_cec:
                    missing.append((name, stage))
                continue
            rows.append((name, stage, base, now_sample.get("min_ms", 0.0),
                         spread(sample), spread(now_sample)))

    if missing:
        print(f"FAIL: {len(missing)} snapshot stage(s) at or above "
              f"{args.min_ms} ms missing from the fresh run:")
        for name, stage in missing:
            print(f"  {name}/{stage}")
        return 1

    if not rows:
        print("note: nothing to compare (empty overlap); passing")
        return 0

    # Machine-speed delta between the snapshot host and this runner,
    # estimated as the median over *per-stage-kind* median ratios: each
    # stage kind gets one vote, so the dominant kind (cec rows, typically
    # most of the above-floor samples) cannot drag the estimate with it
    # when it alone regresses.  'total'/'total_cpu' rows are composites of
    # the other stages and get no vote at all — they'd double-count their
    # dominant constituent.  A uniform slowdown still shifts every kind
    # equally and cancels; a single-stage regression shifts only its own
    # vote.
    by_kind = {}
    for name, stage, base, now, _, _ in rows:
        if not stage.startswith("total"):
            by_kind.setdefault(stage, []).append(now / base)
    if by_kind:
        speed = statistics.median(
            statistics.median(ratios) for ratios in by_kind.values())
    else:
        speed = statistics.median(now / base for _, _, base, now, _, _ in rows)
    print(f"machine-speed factor (median of per-stage medians): "
          f"{speed:.2f}x over {len(by_kind)} stage kinds")

    failures = []
    for name, stage, base, now, base_spread, now_spread in rows:
        ratio = (now / base) / speed
        marker = ""
        if ratio > args.max_ratio:
            failures.append((name, stage, base, now, ratio, base_spread,
                             now_spread))
            marker = "  <-- REGRESSION"
        print(f"{name:16s} {stage:14s} {base:9.3f} -> {now:9.3f} ms "
              f"(normalized {ratio:5.2f}x, spread {base_spread:5.2f}x -> "
              f"{now_spread:5.2f}x){marker}")

    print(f"\ncompared {len(rows)} stages, skipped {skipped} below "
          f"{args.min_ms} ms")
    if failures:
        print(f"FAIL: {len(failures)} stage(s) regressed more than "
              f"{args.max_ratio:.2f}x (machine-speed normalized):")
        for name, stage, base, now, ratio, base_spread, now_spread in failures:
            print(f"  {name}/{stage}: {base:.3f} -> {now:.3f} ms "
                  f"({ratio:.2f}x; max/min spread {base_spread:.2f}x "
                  f"snapshot, {now_spread:.2f}x fresh)")
        return 1
    print("OK: no stage regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
