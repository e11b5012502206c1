#!/usr/bin/env python3
"""Build and run bench_e2e, the end-to-end benchmark of powerlin.

    python3 bench/e2e/run.py --workload dense --seed 1 --seconds 12 --trace 0
    python3 bench/e2e/run.py --quick
    python3 bench/e2e/run.py --compare BASE.json... -- CHANGE.json...

A run builds the benchmark from the checkout's sources into .bench_build/
(configured once, then incremental), runs one workload in a fresh process
and passes its output through; the last line is the JSON result. --trace 1
runs the traced variant and keeps its spans.json and layers.json under
.bench_build/trace/. --out FILE also saves the result with its workload
name, which is what --compare reads. See README.md for the workloads,
metrics and verdict rule.
"""
import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("dense", "sparse", "ranks", "serve", "serve_cold")
RUN_TIMEOUT_S = 170
# Relative tolerance of the simulated notes in --compare. Simulated time
# repeats bit for bit; monitored energy of a CG job can differ by ~0.04%
# between two executions of the same spec (see README.md).
EXACT_TOLERANCE = {"virtual_s": 1e-9, "modeled_j": 1e-3}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no powerlin sources under {ROOT}; "
                 "run it from a full checkout")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in (
            cache.read_text()):
        # Configured for another copy of the sources (a moved checkout).
        shutil.rmtree(BUILD)
    if not cache.is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j4",
                    "--target", "bench_e2e"], check=True, stdout=sys.stderr)
    return BUILD / "bench_e2e"


def run_bench(binary, workload, seed, seconds, trace, out=None,
              capture=False, min_jobs=None):
    """Runs one workload; returns (exit code, stdout text or None)."""
    binary = Path(binary).resolve()
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", "--work-dir=."]
    if min_jobs is not None:
        cmd.append(f"--min-jobs={min_jobs}")
    if trace:
        cmd.append(f"--trace={binary.parent / 'trace' / f'{workload}-seed{seed}'}")
    if out:
        cmd.append(f"--out={Path(out).resolve()}")
    # Scratch stores and the serve socket live next to the binary; a short
    # relative path keeps the socket under the AF_UNIX length limit.
    proc = subprocess.Popen(cmd, cwd=binary.parent,
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run.py: bench_e2e {workload} ran over {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-1])


def quick(binary):
    """About a second per workload plus one traced run: every metric is
    printed with its unit, the JSON parses and nothing failed."""
    spec = benchmark_spec()
    runs = [(w, 0, spec["end_to_end"]) for w in WORKLOADS]
    runs.append(("dense", 1, spec["per_layer"]))
    problems = []
    for workload, trace, expected in runs:
        # One job cycle instead of the fixed job count.
        code, stdout = run_bench(binary, workload, 1, 1, trace, capture=True,
                                 min_jobs=1)
        label = f"{workload} trace={trace}"
        try:
            result = last_json_line(stdout)
        except (ValueError, IndexError) as e:
            problems.append(f"{label}: last line is not JSON ({e})")
            continue
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{label}: unexpected keys {sorted(result)}")
            continue
        if code != 0 or result["correct"] is not True or result["failed"]:
            problems.append(f"{label}: exit {code}, failed {result['failed']}")
        for metric in expected:
            got = result["metrics"].get(metric["name"])
            if got is None:
                problems.append(f"{label}: missing {metric['name']}")
            elif got["unit"] != metric["unit"] or not math.isfinite(
                    got["value"]):
                problems.append(f"{label}: bad {metric['name']} {got}")
        extra = set(result["metrics"]) - {m["name"] for m in expected}
        if extra:
            problems.append(f"{label}: unexpected metrics {sorted(extra)}")
        print(f"{label}: {len(result['metrics'])} metrics, "
              f"{result['attempted']} attempted, {result['failed']} failed")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


def load_results(paths):
    """(workload, metric) -> values in file order, and metric -> clock."""
    values = defaultdict(list)
    clocks = {}
    for path in paths:
        result = last_json_line(Path(path).read_text())
        workload = result.get("workload", "?")
        for name, metric in result["metrics"].items():
            values[(workload, name)].append(metric["value"])
            clocks[name] = metric.get("clock")
    return values, clocks


def verdict(base, change, better, bound):
    """improved | unchanged | regressed | unresolved, by the rule in
    README.md: a gain needs >= 10 pairs, >= 9/10 of them won and a median
    move larger than the parent's IQR; a regression is a median worse by
    more than the bound. A parent spread wider than the bound leaves the
    verdict unresolved unless every change run beats every parent run,
    and hides no regression in which every change run loses to every
    parent run."""
    sign = 1.0 if better == "higher" else -1.0
    med_b = statistics.median(base)
    med_c = statistics.median(change)
    q1, _, q3 = (statistics.quantiles(base, n=4) if len(base) > 1
                 else (med_b, med_b, med_b))
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    gain = sign * (med_c - med_b)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return ("improved" if len(pairs) >= 10 else "unresolved"), wins, \
            len(pairs)
    if bound is None:
        worse = pairs and losses >= 0.9 * len(pairs) and -gain > q3 - q1
        return ("regressed" if worse else "unchanged"), wins, len(pairs)
    scale = abs(med_b) if med_b else 1.0
    noisy = (q3 - q1) / scale > bound
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    all_worse = all(sign * (c - b) < 0 for b in base for c in change)
    if -gain / scale > bound and (all_worse or not noisy):
        return "regressed", wins, len(pairs)
    if noisy and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def exact_verdict(base, change, better, tolerance):
    """Simulated notes repeat for the same seeds, so any median move beyond
    `tolerance` (relative) is real."""
    med_b = statistics.median(base)
    move = (statistics.median(change) - med_b) / (abs(med_b) or 1.0)
    if abs(move) <= tolerance:
        return "unchanged"
    return "improved" if (move > 0) == (better == "higher") else "regressed"


def compare(base_paths, change_paths):
    spec = benchmark_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, clocks = load_results(base_paths)
    change, _ = load_results(change_paths)
    header = ("workload", "metric", "base median [q1, q3]",
              "change median [q1, q3]", "wins", "verdict")
    rows = []
    regressed = False
    for key in sorted(set(base) & set(change)):
        workload, name = key
        b, c = base[key], change[key]
        if name in metrics:
            result, wins, pairs = verdict(b, c, metrics[name]["better"],
                                          metrics[name].get("bound"))
        elif clocks.get(name) in EXACT_TOLERANCE:
            result = exact_verdict(b, c, "lower",
                                   EXACT_TOLERANCE[clocks[name]])
            wins, pairs = "-", min(len(b), len(c))
        else:
            continue
        regressed = regressed or result == "regressed"

        def summary(values):
            q = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
            return (f"{statistics.median(values):.6g} "
                    f"[{q[0]:.6g}, {q[2]:.6g}]")

        rows.append((workload, name, summary(b), summary(c),
                     f"{wins}/{pairs}", result))
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also save the result here")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test every workload for about 1 s")
    parser.add_argument("--binary", help="use this bench_e2e, do not build")
    parser.add_argument("--compare", nargs="+", metavar="BASE",
                        help="--out files of the parent; the change's "
                             "files follow --")
    parser.add_argument("changes", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.compare:
        if not args.changes:
            parser.error("--compare BASE... -- CHANGE...")
        return compare(args.compare, args.changes)
    binary = args.binary or build()
    if args.quick:
        return quick(binary)
    if not args.workload:
        parser.error("--workload is required")
    code, _ = run_bench(binary, args.workload, args.seed, args.seconds,
                        args.trace, out=args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
