#!/usr/bin/env python3
"""Builds and runs the gelib end-to-end benchmark (see src/main.rs).

    python3 bench-e2e/run.py --workload serve_wl --seed 190 --seconds 20 --trace 0
    python3 bench-e2e/run.py                  # every workload, one process each
    python3 bench-e2e/run.py --compare A.jsonl B.jsonl

Run from the repository root. The package is built twice under
$CARGO_TARGET_DIR (default .bench_build), both times with the
`[profile.*]` tables of the repository's Cargo.toml: `plain` without
features, which gives the end-to-end metrics, and `obs` with gel-obs
compiled in, which a `--trace 1` run uses. Every run appends its metrics to
<target>/e2e-runs.jsonl; a traced run reports its difference from the
untraced runs recorded there as tracing overhead. The last line of
output is the run's result as one JSON object.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["suite", "serve_wl", "serve_gel", "ingest"]


def profile_flags():
    """The repository's [profile.*] tables as cargo --config flags, so
    the benchmark is built the way the workspace builds its binaries."""
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.exists(manifest):
        sys.exit(f"no {manifest}: run from a checkout of the repository")
    with open(manifest, "rb") as f:
        profiles = tomllib.load(f).get("profile", {})
    flags = []

    def walk(prefix, table):
        for key, value in table.items():
            key = key if re.fullmatch(r"[A-Za-z0-9_-]+", key) else json.dumps(key)
            if isinstance(value, dict):
                walk(f"{prefix}.{key}", value)
            else:
                flags.extend(["--config", f"{prefix}.{key}={json.dumps(value)}"])

    walk("profile", profiles)
    return flags


def build(target):
    """Builds both variants; returns {variant: executable}, or exits."""
    exes = {}
    profile = profile_flags()
    for variant, features in (("plain", []), ("obs", ["--features", "obs"])):
        cmd = ["cargo", "build", "--release", "--offline", "-q",
               "--manifest-path", os.path.join(HERE, "Cargo.toml"),
               "--target-dir", os.path.join(target, variant)] + profile + features
        code = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
        if code != 0:
            sys.exit(f"build of the {variant} variant failed ({code})")
        exes[variant] = os.path.join(target, variant, "release", "e2e")
    return exes


def run_one(exes, target, args, workload):
    """Runs one workload in its own process; returns its exit code."""
    work = os.path.join(target, "run")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    history = os.path.join(target, "e2e-runs.jsonl")
    env = dict(os.environ, RAYON_NUM_THREADS="2", TMPDIR=os.path.join(work, "tmp"))
    cmd = [exes["obs" if args.trace else "plain"], "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if args.trace else "0", "--json", history]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = lines.pop() if lines and lines[-1].startswith("{") else None
    for line in lines:
        print(line)
    if result is not None:
        record = read_jsonl(history)[-1]
        if args.json:
            with open(args.json, "a") as f:
                f.write(json.dumps(record) + "\n")
        if args.trace:
            overhead(record, read_jsonl(history))
        print(result, flush=True)
    return proc.returncode


def read_jsonl(path):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def overhead(traced, history):
    """Traced end-to-end values against the median of untraced runs of
    the same workload and run length."""
    same = [r for r in history if not r["trace"] and r["workload"] == traced["workload"]
            and r["seconds"] == traced["seconds"] and r["smoke"] == traced["smoke"]]
    if not same:
        print(f"{traced['workload']:<10} tracing overhead: no untraced run of this shape recorded")
        return
    for name, value in traced["e2e"].items():
        base = statistics.median(r["e2e"][name] for r in same)
        print(f"{traced['workload']:<10} tracing overhead {name:<20} traced {value:.6g} "
              f"untraced median {base:.6g} (n={len(same)}) {100 * (value / base - 1):+.1f}%")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(path_a, path_b):
    """Per (workload, end-to-end metric): each side's median and
    quartiles, and a verdict. B is worse when its median is worse than
    A's by more than the metric's bound; unresolved when either side's
    quartile spread exceeds the bound, unless every B run beats every A
    run; better when its median beats A's by more than A's spread and B
    wins nine in ten of the runs paired in file order (every pairing if
    the counts differ). Exits non-zero on any worse or unresolved row."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    a, b = ([r for r in read_jsonl(p) if not r["trace"]] for p in (path_a, path_b))
    failing = False
    print(f"{'workload':<10} {'metric':<18} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34}  verdict")
    for workload in WORKLOADS:
        ra = [r for r in a if r["workload"] == workload]
        rb = [r for r in b if r["workload"] == workload]
        if not ra or not rb:
            continue
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            va = [r["e2e"][name] for r in ra]
            vb = [r["e2e"][name] for r in rb]
            (a1, am, a3), (b1, bm, b3) = quartiles(va), quartiles(vb)
            spread_a = (a3 - a1) / am
            spread = max(spread_a, (b3 - b1) / bm)
            # Change of B against A as a share of A, positive when worse.
            worse_by = (bm - am) / am * (1 if lower else -1)
            def beats(x, y, lower=lower):
                return y < x if lower else y > x
            all_better = all(beats(x, y) for x in va for y in vb)
            if len(va) == len(vb):
                wins = sum(beats(x, y) for x, y in zip(va, vb)) >= 0.9 * len(va)
            else:
                wins = all_better
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif -worse_by > spread_a and wins:
                verdict = "better"
            else:
                verdict = "unchanged"
            failing |= verdict in ("worse", "unresolved")
            print(f"{workload:<10} {name:<18} {am:>12.6g} [{a1:.6g}, {a3:.6g}] "
                  f"{bm:>12.6g} [{b1:.6g}, {b3:.6g}]  {verdict} "
                  f"(spread {100 * spread:.1f}%, bound {100 * bound:.0f}%, n={len(va)}/{len(vb)})")
    return 1 if failing else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=190)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="shrink every input to seconds")
    p.add_argument("--json", help="also append each run's metrics to this JSONL file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two JSONL files of runs")
    args = p.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exes = build(target)
    codes = [run_one(exes, target, args, w) for w in ([args.workload] if args.workload else WORKLOADS)]
    sys.exit(1 if any(codes) else 0)


if __name__ == "__main__":
    main()
