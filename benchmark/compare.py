#!/usr/bin/env python3
"""Compare two sets of benchmark result files (see README.md here).

    python3 benchmark/compare.py BASE_DIR NEW_DIR

Each directory holds the result files run.py writes (--out), usually
one end-to-end run per workload and seed. For every workload and
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles and one verdict:

  regression  the new median is worse than the base median by more
              than the metric's bound, and either both spreads are
              within the bound or every new run is worse than every
              base run
  unresolved  either side's quartile spread (as a share of its median)
              exceeds the bound, and not every new run beats every
              base run
  gain        the new side wins at least 9 of every 10 pairs (runs
              paired by seed; ties count for neither) and the medians
              differ by more than the base quartile spread
  same        none of the above

A rise in failed/attempted is a regression too. The two sides must
come from hosts with the same core count and ISA; otherwise nothing
is compared. Exit code: 0 when nothing regressed or is unresolved,
1 otherwise, 2 when the sets cannot be compared.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """End-to-end results in directory by workload, sorted by seed."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            r = json.load(f)
        if r.get("trace") == 0:
            runs.setdefault(r["workload"], []).append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["seed"])
    return runs


def hosts(runs):
    return {(r["host"]["nproc"], r["host"]["isa"])
            for rs in runs.values() for r in rs}


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base, new, better, bound):
    b_med, b_q1, b_q3 = summary(base)
    n_med, n_q1, n_q3 = summary(new)
    sign = 1 if better == "lower" else -1
    worse = sign * (n_med - b_med) / b_med  # > 0: the new side is worse
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    all_worse = all(sign * (n - b) > 0 for n in new for b in base)
    spread = max((b_q3 - b_q1) / b_med, (n_q3 - n_q1) / n_med)
    if worse > bound and (spread <= bound or all_worse):
        return "regression"
    if spread > bound and not all_better:
        return "unresolved"
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
    pairs = min(len(base), len(new))
    if (worse < 0 and pairs and wins >= 0.9 * pairs
            and abs(n_med - b_med) > b_q3 - b_q1):
        return "gain"
    return "same"


def failed_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / max(attempted, 1)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("compare.py: no end-to-end results in one of the sets",
              file=sys.stderr)
        return 2
    if hosts(base) != hosts(new) or len(hosts(base)) != 1:
        print(f"compare.py: refusing to compare hosts (nproc, isa) "
              f"{sorted(hosts(base))} with {sorted(hosts(new))}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)

    bad = 0
    print(f"{'workload':<15} {'metric':<14} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36}  verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in base or w not in new:
            print(f"{w:<15} missing from one set")
            bad += 1
            continue
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base[w]]
            n = [r["metrics"][m["name"]]["value"] for r in new[w]]
            v = verdict(b, n, m["better"], m["bound"])
            bad += v in ("regression", "unresolved")
            cols = []
            for values in (b, n):
                med, q1, q3 = summary(values)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{w:<15} {m['name']:<14} {cols[0]:>36} {cols[1]:>36}  "
                  f"{v} (bound {m['bound']}, n={len(b)}/{len(n)})")
        fb, fn = failed_frac(base[w]), failed_frac(new[w])
        v = "regression" if fn > fb else "same"
        bad += v == "regression"
        print(f"{w:<15} {'failed_frac':<14} {fb:>36.5g} {fn:>36.5g}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
