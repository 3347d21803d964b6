#!/usr/bin/env python3
"""Compare two sets of saved benchmark runs.

    python3 perfbench/compare.py BASE CHANGE
    python3 perfbench/compare.py RUNS          (one set: statistics only)

Each set is a directory of files (or a single file), each holding the
standard output of one `perfbench/run.py` run. Runs are grouped by workload
and by traced/untraced. For every metric the script prints each side's
median, quartiles (statistics.quantiles, n=4) and spread, the distance
between the quartiles as a share of the median. Each end-to-end metric gets
a verdict against its bound in BENCHMARK.json:

  regressed   the change's median is worse than the base's by more than
              the bound
  improved    better by more than the bound and by more than the base's own
              spread, in at least 9 of 10 base/change pairs
  unresolved  a side's spread exceeds the bound (setup_s excepted, whose
              spread is not gated), and no regression
  same        otherwise

It also checks that runs of the same workload, seed and trace flag report
identical solver counts, within and across the sets. Exit status is 1 when
a metric regressed, a count differs or a run was not correct; else 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MARK = "perfbench-result "


def load_set(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = []
    for name in files:
        with open(name, encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith(MARK):
                    run = json.loads(line[len(MARK):])
                    run["file"] = name
                    runs.append(run)
    return runs


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def wins(base, change, lower_better):
    """Share of base/change pairs (all combinations) the change wins."""
    pairs = [(b, c) for b in base for c in change]
    won = sum(1 for b, c in pairs if (c < b if lower_better else c > b))
    return won / len(pairs) if pairs else 0.0


def verdict(spec, base, change):
    lower = spec["better"] == "lower"
    bmed, _, _, bspread = stats(base)
    cmed, _, _, cspread = stats(change)
    worse = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    if worse > spec["bound"]:
        return "regressed", worse
    gated = spec["name"] != "setup_s"
    if gated and max(bspread, cspread) > spec["bound"]:
        return "unresolved", worse
    if -worse > max(spec["bound"], bspread) and \
            wins(base, change, lower) >= 0.9:
        return "improved", worse
    return "same", worse


def check_counts(runs, problems):
    seen = {}
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"])
        counts = json.dumps(run["counts"], sort_keys=True)
        first = seen.setdefault(key, (counts, run["file"]))
        if first[0] != counts:
            problems.append(f"{key[0]} seed {key[1]}: solver counts of "
                            f"{run['file']} differ from {first[1]}")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load_set(p) for p in argv[1:]]
    problems = []
    for runs in sets:
        for run in runs:
            if not run["correct"]:
                problems.append(f"{run['file']}: run not correct "
                                f"({run['failed']} of {run['attempted']} "
                                "ops failed)")
    check_counts([r for runs in sets for r in runs], problems)

    groups = sorted({(r["workload"], r["trace"]) for runs in sets
                     for r in runs})
    regressed = False
    for workload, trace in groups:
        sides = [[r for r in runs if r["workload"] == workload and
                  r["trace"] == trace] for runs in sets]
        names = sorted({k for side in sides for r in side
                        for k in r["metrics"]})
        print(f"\n{workload} ({'traced' if trace else 'untraced'}; runs "
              f"{' vs '.join(str(len(s)) for s in sides)})")
        for name in names:
            cols = []
            values = []
            for side in sides:
                v = [r["metrics"][name] for r in side if name in r["metrics"]]
                values.append(v)
                if v:
                    med, q1, q3, spread = stats(v)
                    cols.append(f"{med:12.6g} [{q1:.6g}, {q3:.6g}] "
                                f"spread {spread:6.2%}")
                else:
                    cols.append(f"{'-':>12s}")
            line = f"  {name:30s} " + "  |  ".join(cols)
            spec = specs.get(name)
            if spec is not None and not trace:
                if len(sets) == 2 and all(values):
                    v, worse = verdict(spec, values[0], values[1])
                    regressed |= v == "regressed"
                    line += f"  -> {v} ({worse:+.2%} worse, bound " \
                            f"{spec['bound']:.0%})"
                elif values[0] and name != "setup_s":
                    spread = stats(values[0])[3]
                    ok = "within" if spread <= spec["bound"] else "OVER"
                    line += f"  -> spread {ok} bound {spec['bound']:.0%}"
            print(line)
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if regressed or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
