#!/usr/bin/env python3
"""Reproduction benchmark: build the harness, run one workload, check it.

    python3 perfbench/run.py --workload <mc_write|mc_read|array_rw>
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The harness (perfbench/harness, a CMake
package of its own) is built from source into .bench_build/perfbench on
first use. It sets the workload up several times, repeats it cold for
--seconds, and prints its measurements as JSON; this script checks the
outputs against reference.json and prints every metric with its unit.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
line before it starts with `perfbench-result ` and carries the workload,
seed, effective config, exact solver counts and metrics; compare.py reads
files of saved output through it. Exit status: 0 when every output check
passed, 1 when a check failed, 2 on a usage, build or harness error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("mc_write", "mc_read", "array_rw")
DEFAULT_SEED = 1
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                 stderr=sys.stderr, check=False)
        except OSError as exc:
            log(f"perfbench: cannot run {cmd[0]}: {exc}")
            return False
        if res.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def check_mc(out, cfg, ref, checks):
    """Invariants on every seed; the reference values on the default seed."""
    inv = ref["invariants"]
    techniques = out["techniques"]
    if len(techniques) != len(cfg["assists"]):
        checks.append(f"{len(techniques)} techniques, expected "
                      f"{len(cfg['assists'])}")
    tox_nom = inv["tox_nominal_m"]
    for t in techniques:
        name = t["assist"]
        n = cfg["samples_per_assist"]
        if t["samples"] != n or t["finite"] + t["infinite"] + t["flips"] + \
                t["censored"] != n:
            checks.append(f"{name}: sample accounting does not add up to {n}")
        if any(abs(x / tox_nom - 1.0) > inv["tox_bound_frac"] + 1e-12
               for x in t["tox"]):
            checks.append(f"{name}: a Tox draw lies outside the bound")
        if t["finite"] == 0:
            checks.append(f"{name}: no finite sample")
            continue
        lo, hi = inv["value_range"]
        if not lo <= t["min"] <= t["max"] <= hi:
            checks.append(f"{name}: values [{t['min']}, {t['max']}] outside "
                          f"[{lo}, {hi}]")
        if sum(t["hist"]) != t["finite"]:
            checks.append(f"{name}: histogram does not hold every finite "
                          "sample")

    expect = ref.get("default_seed_outputs")
    if cfg["seed"] != ref["seed"] or expect is None:
        return
    tol = ref["tolerance"]
    by_name = {t["assist"]: t for t in techniques}
    for e in expect["techniques"]:
        t = by_name.get(e["assist"])
        if t is None:
            checks.append(f"{e['assist']}: missing")
            continue
        for key in ("infinite", "flips", "censored"):
            if t[key] != e[key]:
                checks.append(f"{e['assist']}: {key} {t[key]}, reference "
                              f"{e[key]}")
        for key in ("mean", "stddev"):
            if e[key] is None or t[key] is None:
                if e[key] != t[key]:
                    checks.append(f"{e['assist']}: {key} {t[key]}, "
                                  f"reference {e[key]}")
                continue
            allowed = tol[key + "_rel"] * abs(e[key]) + tol.get(key + "_abs",
                                                                0.0)
            if abs(t[key] - e[key]) > allowed:
                checks.append(f"{e['assist']}: {key} {t[key]:.6g} differs "
                              f"from reference {e[key]:.6g} by more than "
                              f"{allowed:.3g}")
        moved = sum(abs(a - b) for a, b in zip(t["hist"], e["hist"]))
        if len(t["hist"]) != len(e["hist"]) or moved > tol["hist_l1"]:
            checks.append(f"{e['assist']}: histogram {t['hist']} differs "
                          f"from reference {e['hist']}")


def check_array(out, cfg, ref, checks):
    floor = ref["invariants"]["min_separation_v"]
    engines = {e["engine"]: e for e in out["engines"]}
    for spec in cfg["engines"]:
        e = engines.get(spec["engine"])
        if e is None:
            checks.append(f"{spec['engine']}: engine produced no result")
            continue
        if e["ops"] != spec["ops"]:
            checks.append(f"{spec['engine']}: {e['ops']} ops, expected "
                          f"{spec['ops']}")
        if e["min_separation"] is None or e["min_separation"] < floor:
            checks.append(f"{spec['engine']}: cell separation "
                          f"{e['min_separation']} below the {floor} V floor")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's outputs as the default-seed "
                         "reference (refused for other seeds)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.record_reference and args.seed != DEFAULT_SEED:
        ap.error(f"the reference is for seed {DEFAULT_SEED}")

    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        refs = load_json(os.path.join(HERE, "reference.json"))
    except (OSError, ValueError) as exc:
        log(f"perfbench: {exc}")
        return 2
    if not build():
        return 2

    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=HARNESS_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        log(f"perfbench: harness did not finish: {exc}")
        return 2
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        log(f"perfbench: harness exited with {res.returncode}")
        return 2
    h = json.loads(lines[-1])
    cfg = h["config"]

    ref = refs[args.workload]
    if args.record_reference and (h["failed"] or args.workload == "array_rw"):
        log("perfbench: nothing recorded: the run had failed ops or the "
            "workload keeps no reference values")
        return 2
    if args.record_reference:
        ref["default_seed_outputs"] = {
            "techniques": [{k: t[k] for k in ("assist", "infinite", "flips",
                                               "censored", "mean", "stddev",
                                               "hist")}
                           for t in h["outputs"]["techniques"]]}
        with open(os.path.join(HERE, "reference.json"), "w",
                  encoding="utf-8") as f:
            json.dump(refs, f, indent=1)
            f.write("\n")
        log(f"perfbench: recorded the {args.workload} reference")

    checks = []
    if args.workload == "array_rw":
        check_array(h["outputs"], cfg, ref, checks)
    else:
        check_mc(h["outputs"], cfg, ref, checks)
    failed = h["failed"] + len(checks)
    attempted = h["attempted"]

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = h["layers"]
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {"wall_s": statistics.median(h["wall_s"]),
                  "setup_s": statistics.median(h["setup_s"]),
                  "peak_rss_mb": h["peak_rss_mb"]}
    if set(values) != set(units):
        log("perfbench: harness metrics do not match BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
        return 2
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    correct = failed == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"threads {cfg['threads']}  nproc {cfg['nproc']}  "
          f"build {cfg['build_type']}")
    print(f"repetitions: {len(h['wall_s']) + len(h.get('traced_wall_s', []))}"
          f" timed after one warm-up, {len(h['setup_s'])} set-ups")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    print(f"ops attempted {attempted}  failed {failed}")
    for p in h["problems"] + h["determinism"] + checks:
        print(f"  FAILED: {p}")
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "config": cfg, "counts": h["counts"],
               "correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: m["value"] for k, m in metrics.items()},
               "samples": {"setup_s": h["setup_s"], "wall_s": h["wall_s"],
                           "traced_wall_s": h.get("traced_wall_s", [])},
               "unit_costs": h.get("unit_costs", {})}
    print("perfbench-result " + json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
